// Package qosrank implements the QoS computation and policing model of
// Liu, Ngu & Zeng [16]: an extensible service × metric matrix assembled
// from consumers' execution monitoring, a two-phase computation (per-metric
// min–max normalization honouring polarity, then a weighted sum under the
// consumer's preference weights), and policing — comparing provider-
// advertised QoS against the collected data and discounting services whose
// claims do not hold up.
package qosrank

import (
	"fmt"
	"math"
	"sync"

	"wstrust/internal/core"
	"wstrust/internal/qos"
)

// Option configures the mechanism.
type Option func(*Mechanism)

// WithPolicing enables advertised-vs-measured compliance discounting
// (default on).
func WithPolicing(on bool) Option { return func(m *Mechanism) { m.policing = on } }

// stats accumulates mean raw values per metric for one service.
type stats struct {
	sum   qos.Vector
	count map[qos.MetricID]float64
	calls float64
	fails float64
}

func newStats() *stats {
	return &stats{sum: qos.Vector{}, count: map[qos.MetricID]float64{}}
}

func (s *stats) add(obs qos.Observation) {
	s.calls++
	if !obs.Success {
		s.fails++
		return
	}
	for id, v := range obs.Values {
		if id == qos.Availability {
			continue
		}
		s.sum[id] += v
		s.count[id]++
	}
}

// means returns the observed mean raw vector, including the measured
// availability ratio.
func (s *stats) means() qos.Vector {
	out := qos.Vector{}
	for id, total := range s.sum {
		out[id] = total / s.count[id]
	}
	if s.calls > 0 {
		out[qos.Availability] = (s.calls - s.fails) / s.calls
	}
	return out
}

// Mechanism is the Liu-Ngu-Zeng ranking engine. Safe for concurrent use.
type Mechanism struct {
	policing bool

	mu         sync.Mutex
	services   map[core.ServiceID]*stats
	advertised map[core.ServiceID]qos.Vector
	prefs      map[core.ConsumerID]qos.Preferences
	// The phase-1 matrix depends only on the collected observations:
	// Submit and Reset bump the epoch, and it rebuilds on the next read
	// after one. Claims and preferences are applied per query.
	epoch   core.Epoch
	popMemo core.Memo[population]
}

// population is the phase-1 matrix: every observed service's mean raw
// vector and the normalizer over all of them.
type population struct {
	means map[core.ServiceID]qos.Vector
	norm  *qos.Normalizer
}

var (
	_ core.Mechanism = (*Mechanism)(nil)
	_ core.Resetter  = (*Mechanism)(nil)
)

// New builds the mechanism.
func New(opts ...Option) *Mechanism {
	m := &Mechanism{
		policing:   true,
		services:   map[core.ServiceID]*stats{},
		advertised: map[core.ServiceID]qos.Vector{},
		prefs:      map[core.ConsumerID]qos.Preferences{},
	}
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// Name implements core.Mechanism.
func (m *Mechanism) Name() string { return "qosrank" }

// RegisterAdvertised records a provider's QoS claims so policing can check
// them against reality.
func (m *Mechanism) RegisterAdvertised(id core.ServiceID, adv qos.Vector) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.advertised[id] = adv.Clone()
}

// SetPreferences installs the preference weights Score uses for queries
// from this consumer — the "consumer's profile that shows the consumer's
// preference over different QoS metrics" (Section 3.2).
func (m *Mechanism) SetPreferences(c core.ConsumerID, p qos.Preferences) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("qosrank: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.prefs[c] = p.Clone()
	return nil
}

// Submit implements core.Mechanism: the monitored observation feeds the
// matrix; subjective facet ratings feed non-measurable metrics.
func (m *Mechanism) Submit(fb core.Feedback) error {
	if err := fb.Validate(); err != nil {
		return fmt.Errorf("qosrank: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.services[fb.Service]
	if !ok {
		st = newStats()
		m.services[fb.Service] = st
	}
	st.add(fb.Observed)
	// Subjective facet ratings (accuracy and friends) become matrix
	// columns too, on the [0,1] scale.
	for facet, v := range fb.Ratings {
		if facet == core.FacetOverall {
			continue
		}
		if mt, known := qos.Lookup(facet); known && mt.Measurable {
			continue // measured metrics come from Observed, not opinion
		}
		st.sum[facet] += v
		st.count[facet]++
	}
	m.epoch.Bump()
	return nil
}

// population builds the phase-1 matrix. The normalizer takes per-metric
// minima and maxima, which do not depend on the order services are
// visited in.
func (m *Mechanism) population() population {
	p := population{means: make(map[core.ServiceID]qos.Vector, len(m.services))}
	vecs := make([]qos.Vector, 0, len(m.services))
	for id, st := range m.services {
		if st.calls > 0 {
			p.means[id] = st.means()
			vecs = append(vecs, p.means[id])
		}
	}
	p.norm = qos.NewNormalizer(vecs)
	return p
}

// compliance returns the fraction of advertised claims the measured data
// honours (within 10% slack), or 1 when nothing can be checked.
func (m *Mechanism) compliance(id core.ServiceID, measured qos.Vector) float64 {
	adv, ok := m.advertised[id]
	if !ok || len(adv) == 0 {
		return 1
	}
	checked, met := 0.0, 0.0
	for metric, claim := range adv {
		got, has := measured[metric]
		if !has {
			continue
		}
		checked++
		if qos.PolarityOf(metric) == qos.LowerBetter {
			if got <= claim*1.1 {
				met++
			}
		} else if got >= claim*0.9 {
			met++
		}
	}
	if checked == 0 {
		return 1
	}
	return met / checked
}

// Score implements core.Mechanism: phase 1 normalizes the full matrix,
// phase 2 applies the perspective consumer's weights; policing multiplies
// in the compliance factor.
func (m *Mechanism) Score(q core.Query) (core.TrustValue, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.services[q.Subject]
	if !ok || st.calls == 0 {
		return core.TrustValue{Score: 0.5, Confidence: 0}, false
	}
	// Phase 1: normalize the subject's row of the population matrix.
	pop := m.popMemo.Get(&m.epoch, m.population)
	means := pop.means[q.Subject]
	mine := pop.norm.NormalizeVector(means)

	// Phase 2: weighted sum under the consumer's preferences.
	var prefs qos.Preferences
	if q.Perspective != "" {
		prefs = m.prefs[q.Perspective]
	}
	score := prefs.Utility(mine)

	if m.policing {
		score *= m.compliance(q.Subject, means)
	}
	score = math.Max(0, math.Min(1, score))
	conf := st.calls / (st.calls + 5)
	return core.TrustValue{Score: score, Confidence: conf}, true
}

// Compliance exposes the policing verdict for a service, for experiments.
func (m *Mechanism) Compliance(id core.ServiceID) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.services[id]
	if !ok || st.calls == 0 {
		return 0, false
	}
	return m.compliance(id, st.means()), true
}

// Reset implements core.Resetter.
func (m *Mechanism) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.services = map[core.ServiceID]*stats{}
	m.epoch.Bump()
	// advertised claims and preferences are configuration, not state.
}
