// Package sporas implements the two reputation mechanisms of Zacharia,
// Moukas & Maes [37] that the survey places on opposite sides of its
// global/personalized criterion:
//
//   - Sporas — centralized, person, global: an iterative update where new
//     ratings move the reputation by an amount damped both by a learning
//     rate and by how high the reputation already is, so reputations are
//     hard to max out and recent behaviour dominates.
//   - Histos — centralized, person, personalized: a recursive weighted
//     walk over the rating graph rooted at the querying consumer, so two
//     consumers can assign the same service different reputations.
//
// Ratings here live in [0,1] (the framework scale); Sporas' range constant
// D is therefore 1.
package sporas

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"wstrust/internal/core"
)

// Option configures the mechanism.
type Option func(*Mechanism)

// WithTheta sets Sporas' effective memory θ (>1): larger θ means each new
// rating moves the reputation less. Default 10.
func WithTheta(theta float64) Option {
	return func(m *Mechanism) {
		if theta > 1 {
			m.theta = theta
		}
	}
}

// WithHistos enables Histos personalization: queries carrying a
// Perspective are answered by the recursive rating-graph walk and fall
// back to Sporas when no path exists.
func WithHistos(on bool) Option { return func(m *Mechanism) { m.histos = on } }

const (
	// sigma is the damping slope σ of Φ.
	sigma = 0.25
	// histosDepth bounds Histos' referral recursion.
	histosDepth = 3
)

type sporasState struct {
	r     float64 // current reputation in [0,1]
	count int
	// dev tracks the reliability deviation estimate.
	dev float64
}

// agrResult caches one agreement(a,b) outcome, including the
// no-overlap miss.
type agrResult struct {
	v  float64
	ok bool
}

// Mechanism implements Sporas (+ optional Histos). Safe for concurrent use.
type Mechanism struct {
	theta  float64
	histos bool

	mu    sync.Mutex
	state map[core.EntityID]*sporasState
	// latest[rater][subject] is the most recent rating — Histos' input:
	// "the most recent rating per pair".
	latest map[core.ConsumerID]map[core.EntityID]float64

	// Histos walk caches: the sorted rater list changes only when a new
	// rater appears, and agreement(a,b) only when a or b submits a rating
	// that actually moves their latest row.
	ratersEpoch core.Epoch                   // guarded by mu
	ratersMemo  core.Memo[[]core.ConsumerID] // guarded by mu
	// agrCache[a][b] caches agreement(a,b) as called; a submit from c
	// deletes row c and column c.
	agrCache map[core.ConsumerID]map[core.ConsumerID]agrResult // guarded by mu
}

var _ core.Mechanism = (*Mechanism)(nil)

// New builds a Sporas mechanism.
func New(opts ...Option) *Mechanism {
	m := &Mechanism{
		theta:    10,
		state:    map[core.EntityID]*sporasState{},
		latest:   map[core.ConsumerID]map[core.EntityID]float64{},
		agrCache: map[core.ConsumerID]map[core.ConsumerID]agrResult{},
	}
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// Name implements core.Mechanism.
func (m *Mechanism) Name() string {
	if m.histos {
		return "sporas+histos"
	}
	return "sporas"
}

// phi is Sporas' damping function Φ(R) = 1 − 1/(1+e^{−(R−D)/σ}) with D=1:
// close to 1 for low reputations, approaching 0.5⁻ as R→D so top
// reputations move slowly.
func (m *Mechanism) phi(r float64) float64 {
	return 1 - 1/(1+math.Exp(-(r-1)/sigma))
}

// Submit implements core.Mechanism: one Sporas update per feedback.
func (m *Mechanism) Submit(fb core.Feedback) error {
	if err := fb.Validate(); err != nil {
		return fmt.Errorf("sporas: %w", err)
	}
	w := fb.Overall()
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.state[fb.Service]
	if !ok {
		// New entities start at the bottom of the range: Sporas' defense
		// against whitewashing — re-entering with a fresh identity cannot
		// beat a merely mediocre record.
		st = &sporasState{r: 0, dev: 0.5}
		m.state[fb.Service] = st
	}
	delta := (1 / m.theta) * m.phi(st.r) * (w - st.r)
	st.r = clamp01(st.r + delta)
	st.dev = 0.9*st.dev + 0.1*math.Abs(w-st.r)
	st.count++

	row, ok := m.latest[fb.Consumer]
	if !ok {
		row = map[core.EntityID]float64{}
		m.latest[fb.Consumer] = row
		m.ratersEpoch.Bump()
	}
	old, existed := row[fb.Service]
	row[fb.Service] = w
	if !existed || old != w {
		m.dropAgrLocked(fb.Consumer)
	}
	return nil
}

// dropAgrLocked evicts every cached agreement involving c.
//
//lint:guarded dropAgrLocked runs with m.mu held by Submit
func (m *Mechanism) dropAgrLocked(c core.ConsumerID) {
	delete(m.agrCache, c)
	for _, row := range m.agrCache {
		delete(row, c)
	}
}

func clamp01(x float64) float64 { return math.Max(0, math.Min(1, x)) }

// Score implements core.Mechanism. With Histos enabled and a perspective
// present, the personalized walk answers first.
func (m *Mechanism) Score(q core.Query) (core.TrustValue, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.histos && q.Perspective != "" {
		if tv, ok := m.histosScore(q.Perspective, q.Subject); ok {
			return tv, true
		}
	}
	st, ok := m.state[q.Subject]
	if !ok {
		return core.TrustValue{Score: 0.5, Confidence: 0}, false
	}
	conf := float64(st.count) / float64(st.count+5)
	// Reliability: high deviation (erratic ratings) cuts confidence.
	conf *= clamp01(1 - st.dev)
	return core.TrustValue{Score: st.r, Confidence: conf}, true
}

// histosScore runs the personalized recursion. In a web-service system the
// rating graph is bipartite (consumers rate services), so the walk derives
// rater-to-rater trust edges implicitly from rating agreement on co-rated
// services — the standard adaptation when users do not rate each other.
func (m *Mechanism) histosScore(root core.ConsumerID, subject core.EntityID) (core.TrustValue, bool) {
	// Direct experience ends the recursion immediately.
	if v, ok := m.latest[root][subject]; ok {
		return core.TrustValue{Score: v, Confidence: 0.9}, true
	}
	type frontierEntry struct {
		rater  core.ConsumerID
		weight float64
	}
	visited := map[core.ConsumerID]bool{root: true}
	frontier := []frontierEntry{{root, 1}}
	for depth := 0; depth < histosDepth; depth++ {
		var num, den float64
		var next []frontierEntry
		for _, fe := range frontier {
			for _, other := range m.ratersCached() {
				if visited[other] {
					continue
				}
				agr, ok := m.agreementCached(fe.rater, other)
				if !ok || agr <= 0 {
					continue
				}
				w := fe.weight * agr
				if v, rated := m.latest[other][subject]; rated {
					num += w * v
					den += w
				}
				visited[other] = true
				next = append(next, frontierEntry{other, w})
			}
		}
		if den > 0 {
			return core.TrustValue{
				Score:      num / den,
				Confidence: clamp01(den) * math.Pow(0.7, float64(depth)),
			}, true
		}
		frontier = next
	}
	return core.TrustValue{}, false
}

// raters returns rater ids in sorted order for deterministic walks.
func (m *Mechanism) raters() []core.ConsumerID {
	out := make([]core.ConsumerID, 0, len(m.latest))
	for id := range m.latest {
		out = append(out, id)
	}
	sortEntityIDs(out)
	return out
}

// ratersCached memoizes the sorted rater list until a new rater appears.
// Callers iterate but never mutate it.
//
//lint:guarded ratersCached runs with m.mu held by histosScore's caller
func (m *Mechanism) ratersCached() []core.ConsumerID {
	return m.ratersMemo.Get(&m.ratersEpoch, m.raters)
}

// agreementCached returns agreement(a,b) through the pair cache; only
// submits from a or b evict the entry.
//
//lint:guarded agreementCached runs with m.mu held by histosScore's caller
func (m *Mechanism) agreementCached(a, b core.ConsumerID) (float64, bool) {
	row, ok := m.agrCache[a]
	if ok {
		if r, hit := row[b]; hit {
			return r.v, r.ok
		}
	} else {
		row = map[core.ConsumerID]agrResult{}
		m.agrCache[a] = row
	}
	v, valid := m.agreement(a, b)
	row[b] = agrResult{v, valid}
	return v, valid
}

func sortEntityIDs(ids []core.ConsumerID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// agreement measures how similarly two raters scored the services they both
// rated: 1 − mean|diff|. The boolean is false with no overlap.
func (m *Mechanism) agreement(a, b core.ConsumerID) (float64, bool) {
	ra, rb := m.latest[a], m.latest[b]
	if len(ra) == 0 || len(rb) == 0 {
		return 0, false
	}
	var sum float64
	n := 0
	subjects := make([]core.EntityID, 0, len(ra))
	for subj := range ra {
		subjects = append(subjects, subj)
	}
	sort.Slice(subjects, func(i, j int) bool { return subjects[i] < subjects[j] })
	for _, subj := range subjects {
		if vb, ok := rb[subj]; ok {
			sum += math.Abs(ra[subj] - vb)
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return 1 - sum/float64(n), true
}
