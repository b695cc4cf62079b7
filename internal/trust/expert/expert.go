// Package expert implements the two selection algorithms of Day's
// framework for autonomic web service selection [5/6]: a rule-based expert
// system whose production rules fire on aggregated QoS evidence, and a
// naive Bayes classifier that learns P(good service | discretized QoS
// evidence) from labelled feedback. Both are centralized / resource /
// personalized in the survey's typology — rules and training data encode
// the consumer community's preferences.
package expert

import (
	"fmt"
	"math"
	"sync"

	"wstrust/internal/core"
	"wstrust/internal/qos"
)

// Op is a rule comparison operator.
type Op int

const (
	// LessThan fires when the evidence value is strictly below the bound.
	LessThan Op = iota + 1
	// GreaterThan fires when the evidence value is strictly above the bound.
	GreaterThan
)

// Condition is one antecedent clause testing a facet's mean rating or a
// measured metric's mean value.
type Condition struct {
	Metric qos.MetricID
	Op     Op
	Value  float64
}

// holds evaluates the condition against evidence; missing evidence fails
// the condition (conservative).
func (c Condition) holds(evidence qos.Vector) bool {
	v, ok := evidence[c.Metric]
	if !ok {
		return false
	}
	if c.Op == LessThan {
		return v < c.Value
	}
	return v > c.Value
}

// Rule is a production rule: when every condition holds, the rule
// contributes Verdict (a score in [0,1]) with the given Weight.
type Rule struct {
	Name       string
	Conditions []Condition
	Verdict    float64
	Weight     float64
}

// Validate reports malformed rules.
func (r Rule) Validate() error {
	if len(r.Conditions) == 0 {
		return fmt.Errorf("expert: rule %q has no conditions", r.Name)
	}
	if r.Verdict < 0 || r.Verdict > 1 {
		return fmt.Errorf("expert: rule %q verdict %g outside [0,1]", r.Name, r.Verdict)
	}
	if r.Weight <= 0 {
		return fmt.Errorf("expert: rule %q weight %g not positive", r.Name, r.Weight)
	}
	return nil
}

// evidenceStore aggregates per-service mean facet ratings and measured
// metric means — the working memory both engines match against.
type evidenceStore struct {
	sum   map[core.ServiceID]qos.Vector
	count map[core.ServiceID]map[qos.MetricID]float64
	calls map[core.ServiceID]float64
	fails map[core.ServiceID]float64
}

func newEvidenceStore() *evidenceStore {
	return &evidenceStore{
		sum:   map[core.ServiceID]qos.Vector{},
		count: map[core.ServiceID]map[qos.MetricID]float64{},
		calls: map[core.ServiceID]float64{},
		fails: map[core.ServiceID]float64{},
	}
}

func (e *evidenceStore) add(fb core.Feedback) {
	id := fb.Service
	if e.sum[id] == nil {
		e.sum[id] = qos.Vector{}
		e.count[id] = map[qos.MetricID]float64{}
	}
	e.calls[id]++
	if !fb.Observed.Success {
		e.fails[id]++
	}
	for m, v := range fb.Observed.Values {
		if m == qos.Availability {
			continue
		}
		e.sum[id][m] += v
		e.count[id][m]++
	}
	for facet, v := range fb.Ratings {
		if facet == core.FacetOverall {
			continue
		}
		e.sum[id][facet] += v
		e.count[id][facet]++
	}
}

func (e *evidenceStore) evidence(id core.ServiceID) (qos.Vector, bool) {
	if e.calls[id] == 0 {
		return nil, false
	}
	out := qos.Vector{qos.Availability: (e.calls[id] - e.fails[id]) / e.calls[id]}
	for m, s := range e.sum[id] {
		out[m] = s / e.count[id][m]
	}
	return out, true
}

// Rules is the rule-based expert system. Safe for concurrent use.
type Rules struct {
	mu    sync.Mutex
	rules []Rule
	store *evidenceStore
}

var _ core.Mechanism = (*Rules)(nil)

// NewRules builds the engine with a validated rule base.
func NewRules(rules []Rule) (*Rules, error) {
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	rs := make([]Rule, len(rules))
	copy(rs, rules)
	return &Rules{rules: rs, store: newEvidenceStore()}, nil
}

// Name implements core.Mechanism.
func (r *Rules) Name() string { return "expert-rules" }

// Submit implements core.Mechanism.
func (r *Rules) Submit(fb core.Feedback) error {
	if err := fb.Validate(); err != nil {
		return fmt.Errorf("expert-rules: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store.add(fb)
	return nil
}

// Score implements core.Mechanism: fire all matching rules, return their
// weight-averaged verdict. A service with evidence but no firing rule gets
// the neutral 0.5 at low confidence — the rule base is silent about it.
func (r *Rules) Score(q core.Query) (core.TrustValue, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ev, ok := r.store.evidence(q.Subject)
	if !ok {
		return core.TrustValue{Score: 0.5, Confidence: 0}, false
	}
	var num, den float64
	for _, rule := range r.rules {
		fires := true
		for _, c := range rule.Conditions {
			if !c.holds(ev) {
				fires = false
				break
			}
		}
		if fires {
			num += rule.Weight * rule.Verdict
			den += rule.Weight
		}
	}
	if den == 0 {
		return core.TrustValue{Score: 0.5, Confidence: 0.1}, true
	}
	n := r.store.calls[q.Subject]
	return core.TrustValue{Score: num / den, Confidence: n / (n + 5)}, true
}

// Bayes is the naive Bayes good/bad service classifier. Evidence facets are
// discretized into low/mid/high bins; feedback with Overall > 0.5 trains
// the "good" class. Safe for concurrent use.
type Bayes struct {
	mu sync.Mutex
	// counts[class][facet][bin] with Laplace smoothing at query time.
	counts     [2]map[qos.MetricID][3]float64
	classTotal [2]float64
	store      *evidenceStore
}

var _ core.Mechanism = (*Bayes)(nil)

// NewBayes builds the classifier.
func NewBayes() *Bayes {
	b := &Bayes{store: newEvidenceStore()}
	b.counts[0] = map[qos.MetricID][3]float64{}
	b.counts[1] = map[qos.MetricID][3]float64{}
	return b
}

// Name implements core.Mechanism.
func (b *Bayes) Name() string { return "expert-bayes" }

// bin discretizes a [0,1] rating into low/mid/high.
func bin(v float64) int {
	switch {
	case v < 1.0/3:
		return 0
	case v < 2.0/3:
		return 1
	default:
		return 2
	}
}

// Submit implements core.Mechanism: each feedback is one training example
// labelled by its overall verdict.
func (b *Bayes) Submit(fb core.Feedback) error {
	if err := fb.Validate(); err != nil {
		return fmt.Errorf("expert-bayes: %w", err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.store.add(fb)
	class := 0
	if fb.Overall() > 0.5 {
		class = 1
	}
	b.classTotal[class]++
	for facet, v := range fb.Ratings {
		if facet == core.FacetOverall {
			continue
		}
		bins := b.counts[class][facet]
		bins[bin(v)]++
		b.counts[class][facet] = bins
	}
	return nil
}

// Score implements core.Mechanism: P(good | service's mean facet evidence)
// via naive Bayes with Laplace smoothing.
func (b *Bayes) Score(q core.Query) (core.TrustValue, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ev, ok := b.store.evidence(q.Subject)
	if !ok {
		return core.TrustValue{Score: 0.5, Confidence: 0}, false
	}
	total := b.classTotal[0] + b.classTotal[1]
	if total == 0 {
		return core.TrustValue{Score: 0.5, Confidence: 0}, true
	}
	logP := [2]float64{}
	for class := 0; class < 2; class++ {
		logP[class] = math.Log((b.classTotal[class] + 1) / (total + 2))
		for _, facet := range ev.IDs() {
			if facet == qos.Availability {
				continue
			}
			if _, tracked := b.counts[0][facet]; !tracked {
				if _, tracked1 := b.counts[1][facet]; !tracked1 {
					continue // facet never seen in training
				}
			}
			bins := b.counts[class][facet]
			facetTotal := bins[0] + bins[1] + bins[2]
			likelihood := (bins[bin(ev[facet])] + 1) / (facetTotal + 3)
			logP[class] += math.Log(likelihood)
		}
	}
	// Normalize in log space.
	m := math.Max(logP[0], logP[1])
	p0, p1 := math.Exp(logP[0]-m), math.Exp(logP[1]-m)
	posterior := p1 / (p0 + p1)
	n := b.store.calls[q.Subject]
	return core.TrustValue{Score: posterior, Confidence: n / (n + 5)}, true
}
