// Package maximilien implements the agent-based web service trust and
// selection framework of Maximilien & Singh [18–21]: consumer agents act on
// behalf of consumers under explicit QoS policies expressed over a shared
// QoS ontology (wstrust's qos taxonomy plays the ontology role); service
// agencies aggregate per-facet reputations from agent-reported ratings; and
// selection combines reputation with each agent's policy — both its
// preference weights and its hard minimum requirements.
//
// The explorer agents of [19] live in the monitor package and interoperate
// with this mechanism through the core.Mechanism contract (experiment C9).
package maximilien

import (
	"fmt"
	"sort"
	"sync"

	"wstrust/internal/core"
	"wstrust/internal/qos"
)

// Policy is a consumer agent's selection policy.
type Policy struct {
	// Weights are the agent's preference weights over facets.
	Weights qos.Preferences
	// Minimums are hard per-facet floors: a service whose reputation on a
	// facet sits below the floor is disqualified regardless of its other
	// qualities.
	Minimums map[core.Facet]float64
}

// Validate checks the policy against the QoS ontology: every referenced
// facet must be a taxonomy metric or the overall facet. This is the
// ontology-conformance check of [21] — agents and agencies must speak the
// same vocabulary.
func (p Policy) Validate() error {
	if err := p.Weights.Validate(); err != nil {
		return fmt.Errorf("maximilien: %w", err)
	}
	check := func(f core.Facet) error {
		if f == core.FacetOverall {
			return nil
		}
		if _, ok := qos.Lookup(f); !ok {
			return fmt.Errorf("maximilien: facet %q not in the QoS ontology", f)
		}
		return nil
	}
	for f := range p.Weights {
		if err := check(f); err != nil {
			return err
		}
	}
	for f, v := range p.Minimums {
		if err := check(f); err != nil {
			return err
		}
		if v < 0 || v > 1 {
			return fmt.Errorf("maximilien: minimum %g for %q outside [0,1]", v, f)
		}
	}
	return nil
}

// facetStat is a running mean of ratings on one facet of one service.
type facetStat struct {
	sum, n float64
}

// Mechanism is the agency-side reputation store plus policy evaluation.
// Safe for concurrent use.
type Mechanism struct {
	mu       sync.Mutex
	facets   map[core.ServiceID]map[core.Facet]*facetStat
	calls    map[core.ServiceID]float64
	policies map[core.ConsumerID]Policy
}

var _ core.Mechanism = (*Mechanism)(nil)

// New builds the mechanism.
func New() *Mechanism {
	return &Mechanism{
		facets:   map[core.ServiceID]map[core.Facet]*facetStat{},
		calls:    map[core.ServiceID]float64{},
		policies: map[core.ConsumerID]Policy{},
	}
}

// Name implements core.Mechanism.
func (m *Mechanism) Name() string { return "maximilien" }

// SetPolicy installs a consumer agent's policy after ontology validation.
func (m *Mechanism) SetPolicy(c core.ConsumerID, p Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cp := Policy{Weights: p.Weights.Clone(), Minimums: map[core.Facet]float64{}}
	for f, v := range p.Minimums {
		cp.Minimums[f] = v
	}
	m.policies[c] = cp
	return nil
}

// Submit implements core.Mechanism: agents report per-facet ratings to the
// agency.
func (m *Mechanism) Submit(fb core.Feedback) error {
	if err := fb.Validate(); err != nil {
		return fmt.Errorf("maximilien: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	row, ok := m.facets[fb.Service]
	if !ok {
		row = map[core.Facet]*facetStat{}
		m.facets[fb.Service] = row
	}
	m.calls[fb.Service]++
	add := func(f core.Facet, v float64) {
		st, ok := row[f]
		if !ok {
			st = &facetStat{}
			row[f] = st
		}
		st.sum += v
		st.n++
	}
	for f, v := range fb.Ratings {
		add(f, v)
	}
	if _, has := fb.Ratings[core.FacetOverall]; !has {
		add(core.FacetOverall, fb.Overall())
	}
	return nil
}

// facetReputations returns mean per-facet reputations for a service.
func (m *Mechanism) facetReputations(id core.ServiceID) qos.Vector {
	out := qos.Vector{}
	for f, st := range m.facets[id] {
		if st.n > 0 {
			out[f] = st.sum / st.n
		}
	}
	return out
}

// Score implements core.Mechanism. Query facets other than FacetOverall
// return the raw facet reputation. The overall answer is policy-driven for
// perspectives with a registered policy: hard minimums disqualify, weights
// rank; agents without a policy get the agency's plain overall mean.
func (m *Mechanism) Score(q core.Query) (core.TrustValue, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.calls[q.Subject] == 0 {
		return core.TrustValue{Score: 0.5, Confidence: 0}, false
	}
	reps := m.facetReputations(q.Subject)
	n := m.calls[q.Subject]
	conf := n / (n + 5)

	if q.Facet != core.FacetOverall && q.Facet != "" {
		v, ok := reps[q.Facet]
		if !ok {
			return core.TrustValue{Score: 0.5, Confidence: 0}, false
		}
		return core.TrustValue{Score: v, Confidence: conf}, true
	}

	policy, hasPolicy := m.policies[q.Perspective]
	if !hasPolicy || q.Perspective == "" {
		v, ok := reps[core.FacetOverall]
		if !ok {
			v = 0.5
		}
		return core.TrustValue{Score: v, Confidence: conf}, ok
	}
	// Hard minimums: disqualification, not mere down-weighting.
	for _, f := range sortedFacets(policy.Minimums) {
		if rep, ok := reps[f]; ok && rep < policy.Minimums[f] {
			return core.TrustValue{Score: 0, Confidence: conf}, true
		}
	}
	// Availability is probability-like and gates every other quality: a
	// call that never lands delivers nothing, however fast or accurate the
	// service is when up. Following the standard QoS aggregation (and the
	// multiplicative handling in Zeng-style models), it multiplies the
	// weighted combination of the remaining facets instead of averaging
	// into it.
	weights := policy.Weights.Clone()
	delete(weights, qos.Availability)
	score := weights.Utility(reps)
	if av, ok := reps[qos.Availability]; ok {
		if _, weighted := policy.Weights[qos.Availability]; weighted {
			score *= av
		}
	}
	return core.TrustValue{Score: score, Confidence: conf}, true
}

// sortedFacets returns map keys in deterministic order.
func sortedFacets(m map[core.Facet]float64) []core.Facet {
	out := make([]core.Facet, 0, len(m))
	for f := range m {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
