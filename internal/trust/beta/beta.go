// Package beta implements an evidence-based Bayesian reputation mechanism
// built on the Beta distribution — the mathematical core shared by several
// systems the survey classifies (Jøsang's belief model underlying [10],
// the probabilistic parts of Yu & Singh [35] and Wang & Vassileva [31]).
//
// Every (subject, context, facet) pair accumulates positive evidence r and
// negative evidence s from feedback; the reputation score is the expected
// value of Beta(r+1, s+1) and the confidence grows with total evidence.
// Time decay implements the paper's "trust and reputation ... decay with
// time" by exponentially discounting old evidence before each update, and
// the mechanism supports both a global mode (public reputation) and a
// personalized mode that blends the perspective consumer's own experience
// with the public aggregate — trust versus reputation exactly as Section 3
// distinguishes them.
package beta

import (
	"fmt"
	"sync"
	"time"

	"wstrust/internal/core"
)

// Option configures a Mechanism.
type Option func(*Mechanism)

// WithHalfLife sets the evidence half-life (default: no decay).
func WithHalfLife(d time.Duration) Option {
	return func(m *Mechanism) { m.decay = core.ExpDecay(d) }
}

// WithPersonalized enables per-consumer direct-trust tracking; Score then
// blends direct experience with public reputation, weighting each by its
// evidence. Default is global-only.
func WithPersonalized(on bool) Option {
	return func(m *Mechanism) { m.personalized = on }
}

// confScale is how much total evidence (r+s) is needed to reach
// confidence 0.5 (Jøsang's u = 2/(r+s+2)).
const confScale = 2

// evidence is a decaying (r, s) pair.
type evidence struct {
	r, s float64
	last time.Time
}

func (e *evidence) observe(pos, neg float64, at time.Time, decay core.DecayFunc) {
	if !e.last.IsZero() && at.After(e.last) {
		w := decay(at.Sub(e.last))
		e.r *= w
		e.s *= w
	}
	e.r += pos
	e.s += neg
	if at.After(e.last) {
		e.last = at
	}
}

// score is the Beta posterior mean; confidence approaches 1 with evidence.
func (e *evidence) score() core.TrustValue {
	total := e.r + e.s
	if total == 0 {
		return core.TrustValue{Score: 0.5, Confidence: 0}
	}
	return core.TrustValue{
		Score:      (e.r + 1) / (total + 2),
		Confidence: total / (total + confScale),
	}
}

type subjectKey struct {
	subject core.EntityID
	context core.Context
	facet   core.Facet
}

type directKey struct {
	perspective core.ConsumerID
	subjectKey
}

// Mechanism is the Beta reputation engine. Safe for concurrent use.
type Mechanism struct {
	decay        core.DecayFunc
	personalized bool

	mu        sync.Mutex
	global    map[subjectKey]*evidence
	direct    map[directKey]*evidence
	providers map[subjectKey]*evidence
}

var (
	_ core.Mechanism      = (*Mechanism)(nil)
	_ core.ProviderScorer = (*Mechanism)(nil)
)

// New builds a Beta reputation mechanism.
func New(opts ...Option) *Mechanism {
	m := &Mechanism{
		decay:     core.NoDecay,
		global:    map[subjectKey]*evidence{},
		direct:    map[directKey]*evidence{},
		providers: map[subjectKey]*evidence{},
	}
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// Name implements core.Mechanism.
func (m *Mechanism) Name() string { return "beta" }

// Submit folds the feedback's facet ratings into the evidence pools: the
// service pools, the consumer's direct pools (in personalized mode), and
// the provider pools.
func (m *Mechanism) Submit(fb core.Feedback) error {
	if err := fb.Validate(); err != nil {
		return fmt.Errorf("beta: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()

	for facet, v := range fb.Ratings {
		m.applyFacetLocked(fb, facet, v)
	}
	if _, hasOverall := fb.Ratings[core.FacetOverall]; !hasOverall {
		m.applyFacetLocked(fb, core.FacetOverall, fb.Overall())
	}
	return nil
}

// applyFacetLocked folds one facet rating into the evidence pools. It is a
// method rather than a closure in Submit because a closure capturing the
// feedback heap-allocates on every Submit, which the hotalloc analyzer
// keeps out of the steady path. Pool misses (roster growth) allocate
// inside the un-annotated pool helpers.
//
//lint:hotpath
func (m *Mechanism) applyFacetLocked(fb core.Feedback, facet core.Facet, v float64) {
	pos, neg := v, 1-v
	k := subjectKey{fb.Service, fb.Context, facet}
	m.pool(m.global, k).observe(pos, neg, fb.At, m.decay)
	if m.personalized {
		m.poolDirect(directKey{fb.Consumer, k}).observe(pos, neg, fb.At, m.decay)
	}
	if fb.Provider != "" {
		pk := subjectKey{fb.Provider, fb.Context, facet}
		m.pool(m.providers, pk).observe(pos, neg, fb.At, m.decay)
	}
}

func (m *Mechanism) pool(pools map[subjectKey]*evidence, k subjectKey) *evidence {
	ev, ok := pools[k]
	if !ok {
		ev = &evidence{}
		pools[k] = ev
	}
	return ev
}

func (m *Mechanism) poolDirect(k directKey) *evidence {
	ev, ok := m.direct[k]
	if !ok {
		ev = &evidence{}
		m.direct[k] = ev
	}
	return ev
}

// Score implements core.Mechanism. In personalized mode with a perspective,
// direct experience and public reputation are blended by confidence —
// "trust can be gained from a person's own experiences with an entity or
// the reputation of the entity" (Section 3).
func (m *Mechanism) Score(q core.Query) (core.TrustValue, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := subjectKey{q.Subject, q.Context, q.Facet}
	pub, pubOK := m.lookup(m.global, k)
	if !m.personalized || q.Perspective == "" {
		return pub, pubOK
	}
	dk := directKey{q.Perspective, k}
	ev, ok := m.direct[dk]
	if !ok || ev.r+ev.s == 0 {
		return pub, pubOK
	}
	direct := ev.score()
	if !pubOK {
		return direct, true
	}
	return core.Blend(direct, pub), true
}

// ScoreProvider implements core.ProviderScorer.
func (m *Mechanism) ScoreProvider(q core.Query) (core.TrustValue, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lookup(m.providers, subjectKey{q.Subject, q.Context, q.Facet})
}

func (m *Mechanism) lookup(pools map[subjectKey]*evidence, k subjectKey) (core.TrustValue, bool) {
	ev, ok := pools[k]
	if !ok || ev.r+ev.s == 0 {
		// Fall back to the cross-context aggregate when the exact context
		// is unknown but a wildcard entry exists.
		if k.context != core.ContextAny {
			k2 := k
			k2.context = core.ContextAny
			if ev2, ok2 := pools[k2]; ok2 && ev2.r+ev2.s > 0 {
				return ev2.score(), true
			}
		}
		return core.TrustValue{Score: 0.5, Confidence: 0}, false
	}
	return ev.score(), true
}
