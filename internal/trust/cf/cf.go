// Package cf implements collaborative filtering for web service selection —
// the centralized / resource / personalized branch of the survey's
// Figure 4. It covers the empirical-analysis toolkit of Breese, Heckerman
// & Kadie [3] (Pearson correlation and vector/cosine similarity, inverse
// user frequency, case amplification), which is precisely the design space
// Karta [13] investigates for web services, and the recommender-based
// dynamic selection of Manikrao & Prabhakar [17].
//
// The mechanism keeps a consumer × service rating matrix (latest rating
// wins) and predicts the rating a perspective consumer would give an
// unconsumed service from the ratings of similar consumers.
//
// Derived state — per-consumer means, item means, IUF weights, the
// sorted consumer list, and pairwise similarities — is memoized under
// the core epoch-cache pattern and invalidated only as finely as a
// Submit requires: a new rating from consumer c about service s drops
// c's mean, s's item mean, and similarities involving c, while every
// other cached value survives. Cached values are produced by the same
// code paths (same sorted iteration, same float summation order) as the
// recompute-from-scratch versions, so scores are byte-identical — the
// package's differential test enforces this.
package cf

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"wstrust/internal/core"
)

// Similarity selects the user-user similarity measure.
type Similarity int

const (
	// Pearson is the Pearson correlation coefficient over co-rated items.
	Pearson Similarity = iota + 1
	// Cosine is the vector similarity of Breese et al. / Karta.
	Cosine
)

// String implements fmt.Stringer.
func (s Similarity) String() string {
	switch s {
	case Pearson:
		return "pearson"
	case Cosine:
		return "cosine"
	default:
		return fmt.Sprintf("Similarity(%d)", int(s))
	}
}

// Option configures the mechanism.
type Option func(*Mechanism)

// WithSimilarity selects the similarity measure (default Pearson).
func WithSimilarity(s Similarity) Option { return func(m *Mechanism) { m.sim = s } }

// WithNeighbors sets the neighborhood size k (default 10).
func WithNeighbors(k int) Option {
	return func(m *Mechanism) {
		if k > 0 {
			m.k = k
		}
	}
}

// WithCaseAmplification applies Breese's case amplification sim^ρ
// (ρ ≥ 1 emphasizes strong similarities; default 1 = off).
func WithCaseAmplification(rho float64) Option {
	return func(m *Mechanism) {
		if rho >= 1 {
			m.rho = rho
		}
	}
}

// WithInverseUserFrequency enables Breese's inverse user frequency: items
// everyone rates carry less similarity signal (default off).
func WithInverseUserFrequency(on bool) Option { return func(m *Mechanism) { m.iuf = on } }

// WithDefaultVoting enables Breese's default voting: similarities are
// computed over the union of the two users' items, with missing ratings
// filled by the given default value. It densifies sparse overlap at the
// cost of blurring strong signals.
func WithDefaultVoting(value float64) Option {
	return func(m *Mechanism) {
		if value >= 0 && value <= 1 {
			m.defaultVote = &value
		}
	}
}

// WithMinOverlap sets the minimum number of co-rated items required before
// a similarity is trusted (default 2).
func WithMinOverlap(n int) Option {
	return func(m *Mechanism) {
		if n > 0 {
			m.minOverlap = n
		}
	}
}

// simResult caches one similarity(a,b) outcome, including the
// below-minimum-overlap rejection.
type simResult struct {
	s  float64
	ok bool
}

// itemMeanResult caches one itemMean outcome, including the no-ratings miss.
type itemMeanResult struct {
	tv core.TrustValue
	ok bool
}

// Mechanism is the collaborative-filtering engine. Safe for concurrent use.
type Mechanism struct {
	sim         Similarity
	k           int
	rho         float64
	iuf         bool
	minOverlap  int
	defaultVote *float64

	mu      sync.Mutex
	ratings map[core.ConsumerID]map[core.EntityID]float64 // guarded by mu

	// itemCnt is the per-item rater count, equal to the IUF rating count,
	// maintained at Submit time: it is integer-exact and lets itemWeights
	// rebuild from O(items) instead of scanning the whole matrix.
	itemCnt map[core.EntityID]int // guarded by mu

	// Epoch caches over the rating matrix. pairEpoch advances whenever a
	// new (consumer, item) cell appears — the only event that changes
	// rating counts, hence IUF weights; consEpoch advances only when a
	// new consumer appears.
	pairEpoch core.Epoch                                    // guarded by mu
	consEpoch core.Epoch                                    // guarded by mu
	consMemo  core.Memo[[]core.ConsumerID]                  // guarded by mu
	iufMemo   core.Memo[map[core.EntityID]float64]          // guarded by mu
	meanMemo  core.KeyedMemo[core.ConsumerID, float64]      // guarded by mu
	itemMemo  core.KeyedMemo[core.EntityID, itemMeanResult] // guarded by mu
	// simCache[a][b] stores the raw (pre-amplification) similarity of
	// perspective a to rater b. A submit from c deletes row c and column c.
	simCache map[core.ConsumerID]map[core.ConsumerID]simResult // guarded by mu
	// nbScratch is Score's reusable neighbor buffer.
	nbScratch []neighbor // guarded by mu
}

var _ core.Mechanism = (*Mechanism)(nil)

// New builds a collaborative-filtering mechanism.
func New(opts ...Option) *Mechanism {
	m := &Mechanism{
		sim:        Pearson,
		k:          10,
		rho:        1,
		minOverlap: 2,
		ratings:    map[core.ConsumerID]map[core.EntityID]float64{},
		simCache:   map[core.ConsumerID]map[core.ConsumerID]simResult{},
		itemCnt:    map[core.EntityID]int{},
	}
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// Name implements core.Mechanism.
func (m *Mechanism) Name() string {
	name := "cf-" + m.sim.String()
	if m.defaultVote != nil {
		name += "+default"
	}
	return name
}

// Submit implements core.Mechanism.
func (m *Mechanism) Submit(fb core.Feedback) error {
	if err := fb.Validate(); err != nil {
		return fmt.Errorf("cf: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	row, known := m.ratings[fb.Consumer]
	if !known {
		row = map[core.EntityID]float64{}
		m.ratings[fb.Consumer] = row
	}
	v := fb.Overall()
	old, existed := row[fb.Service]
	if existed && old == v {
		return nil // identical overwrite: no derived state moves
	}
	row[fb.Service] = v

	// Invalidate exactly what this cell can influence.
	m.meanMemo.Drop(fb.Consumer)
	m.itemMemo.Drop(fb.Service)
	m.dropSimsLocked(fb.Consumer)
	if !existed {
		m.itemCnt[fb.Service]++
		m.pairEpoch.Bump()
		if m.iuf {
			// Rating counts shifted, so IUF weights — and every
			// IUF-weighted similarity — are stale.
			m.simCache = map[core.ConsumerID]map[core.ConsumerID]simResult{}
		}
	}
	if !known {
		m.consEpoch.Bump()
	}
	return nil
}

// dropSimsLocked evicts every cached similarity involving c, as
// perspective (row) or rater (column).
//
//lint:guarded dropSimsLocked runs with m.mu held by Submit
func (m *Mechanism) dropSimsLocked(c core.ConsumerID) {
	delete(m.simCache, c)
	for _, row := range m.simCache {
		delete(row, c)
	}
}

// itemWeights computes inverse-user-frequency weights log(n/n_i).
// itemWeights is the recompute path behind itemWeightsCached.
//
//lint:guarded itemWeights runs with m.mu held by its callers
func (m *Mechanism) itemWeights() map[core.EntityID]float64 {
	if !m.iuf {
		return nil
	}
	// Rating counts are maintained incrementally at Submit time (they are
	// integers, so the incremental roster is bit-exact), turning this
	// recompute from a full matrix scan into O(items).
	n := float64(len(m.ratings))
	out := make(map[core.EntityID]float64, len(m.itemCnt))
	for item, c := range m.itemCnt {
		if c > 0 {
			w := math.Log(n / float64(c))
			if w <= 0 {
				w = 1e-9 // rated by everyone: nearly no signal, never negative
			}
			out[item] = w
		}
	}
	return out
}

// itemWeightsCached memoizes itemWeights until a new matrix cell appears.
//
//lint:guarded itemWeightsCached runs with m.mu held by Score's locked section
func (m *Mechanism) itemWeightsCached() map[core.EntityID]float64 {
	if !m.iuf {
		return nil
	}
	return m.iufMemo.Get(&m.pairEpoch, m.itemWeights)
}

// similarity computes sim(a,b) over co-rated items; ok is false when the
// overlap is below the minimum.
func (m *Mechanism) similarity(a, b map[core.EntityID]float64, iufW map[core.EntityID]float64) (float64, bool) {
	type pair struct{ x, y, w float64 }
	var ps []pair
	itemSet := make(map[core.EntityID]bool, len(a)+len(b))
	for item := range a {
		itemSet[item] = true
	}
	if m.defaultVote != nil {
		for item := range b {
			itemSet[item] = true
		}
	}
	items := make([]core.EntityID, 0, len(itemSet))
	for item := range itemSet {
		items = append(items, item)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	overlap := 0
	for _, item := range items {
		va, okA := a[item]
		vb, okB := b[item]
		if okA && okB {
			overlap++
		}
		if m.defaultVote == nil {
			if !okA || !okB {
				continue
			}
		} else {
			if !okA {
				va = *m.defaultVote
			}
			if !okB {
				vb = *m.defaultVote
			}
		}
		w := 1.0
		if iufW != nil && okA && okB {
			w = iufW[item]
		}
		ps = append(ps, pair{va, vb, w})
	}
	if overlap < m.minOverlap {
		return 0, false
	}
	switch m.sim {
	case Cosine:
		var dot, na, nb float64
		for _, p := range ps {
			dot += p.w * p.x * p.y
			na += p.w * p.x * p.x
			nb += p.w * p.y * p.y
		}
		if na == 0 || nb == 0 {
			return 0, false
		}
		return dot / (math.Sqrt(na) * math.Sqrt(nb)), true
	default: // Pearson
		var sw, sx, sy float64
		for _, p := range ps {
			sw += p.w
			sx += p.w * p.x
			sy += p.w * p.y
		}
		mx, my := sx/sw, sy/sw
		var cov, vx, vy float64
		for _, p := range ps {
			cov += p.w * (p.x - mx) * (p.y - my)
			vx += p.w * (p.x - mx) * (p.x - mx)
			vy += p.w * (p.y - my) * (p.y - my)
		}
		if vx == 0 || vy == 0 {
			return 0, false
		}
		return cov / (math.Sqrt(vx) * math.Sqrt(vy)), true
	}
}

// similarityCached returns sim(a,b) through the pair cache. Raw values
// are cached; case amplification is applied by the caller, so the cache
// stays valid across rho settings and the stored float is exactly what
// similarity produced.
//
//lint:guarded similarityCached runs with m.mu held by Score's locked section
func (m *Mechanism) similarityCached(a, b core.ConsumerID, ra, rb map[core.EntityID]float64, iufW map[core.EntityID]float64) (float64, bool) {
	row, ok := m.simCache[a]
	if ok {
		if r, hit := row[b]; hit {
			return r.s, r.ok
		}
	} else {
		row = map[core.ConsumerID]simResult{}
		m.simCache[a] = row
	}
	s, valid := m.similarity(ra, rb, iufW)
	row[b] = simResult{s, valid}
	return s, valid
}

// SimilarityBetween exposes the configured similarity between two
// consumers, for experiments and diagnostics.
func (m *Mechanism) SimilarityBetween(a, b core.ConsumerID) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ra, ok1 := m.ratings[a]
	rb, ok2 := m.ratings[b]
	if !ok1 || !ok2 {
		return 0, false
	}
	return m.similarityCached(a, b, ra, rb, m.itemWeightsCached())
}

type neighbor struct {
	id   core.ConsumerID
	sim  float64
	mean float64
	val  float64
}

// Score implements core.Mechanism. With a perspective it predicts that
// consumer's rating of the subject from similar consumers; without one it
// answers the item's shrunken mean (the global fallback Manikrao &
// Prabhakar use before enough personal history exists).
//
// slices.SortFunc avoids sort.Slice's interface boxing per call.
//
//lint:hotpath the steady path reuses nbScratch and the epoch caches;
func (m *Mechanism) Score(q core.Query) (core.TrustValue, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()

	if q.Perspective == "" {
		return m.itemMeanCached(q.Subject)
	}
	me, ok := m.ratings[q.Perspective]
	if !ok || len(me) == 0 {
		return m.itemMeanCached(q.Subject)
	}
	// Direct experience short-circuits: the consumer knows this service.
	if v, rated := me[q.Subject]; rated {
		return core.TrustValue{Score: v, Confidence: 0.9}, true
	}
	myMean := m.meanOfCached(q.Perspective, me)
	iufW := m.itemWeightsCached()

	nbs := m.nbScratch[:0]
	for _, other := range m.consumersCached() {
		if other == q.Perspective {
			continue
		}
		row := m.ratings[other]
		val, rated := row[q.Subject]
		if !rated {
			continue
		}
		s, ok := m.similarityCached(q.Perspective, other, me, row, iufW)
		if !ok || s <= 0 {
			continue
		}
		if m.rho > 1 {
			s = math.Pow(s, m.rho)
		}
		nbs = append(nbs, neighbor{other, s, m.meanOfCached(other, row), val})
	}
	m.nbScratch = nbs
	if len(nbs) == 0 {
		return m.itemMeanCached(q.Subject)
	}
	// Descending similarity, id tie-break — a total order, so the result
	// is byte-identical to the sort.Slice this replaced (which boxed nbs
	// into an any per call).
	slices.SortFunc(nbs, func(a, b neighbor) int {
		switch {
		case a.sim > b.sim:
			return -1
		case a.sim < b.sim:
			return 1
		case a.id < b.id:
			return -1
		case a.id > b.id:
			return 1
		}
		return 0
	})
	if len(nbs) > m.k {
		nbs = nbs[:m.k]
	}
	var num, den float64
	for _, nb := range nbs {
		num += nb.sim * (nb.val - nb.mean)
		den += math.Abs(nb.sim)
	}
	pred := myMean + num/den
	pred = math.Max(0, math.Min(1, pred))
	conf := den / (den + 2)
	return core.TrustValue{Score: pred, Confidence: conf}, true
}

// itemMean is the recompute path behind itemMeanCached: it re-sums the
// column in sorted consumer order.
//
//lint:guarded itemMean runs with m.mu held by its callers
func (m *Mechanism) itemMean(item core.EntityID) (core.TrustValue, bool) {
	var sum, n float64
	for _, c := range m.consumersCached() {
		if v, ok := m.ratings[c][item]; ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return core.TrustValue{Score: 0.5, Confidence: 0}, false
	}
	score := (sum + 0.5*3) / (n + 3) // mild shrinkage toward neutral
	return core.TrustValue{Score: score, Confidence: n / (n + 5)}, true
}

// itemMeanCached memoizes itemMean per item; a submit about the item
// drops just that entry.
//
//lint:guarded itemMeanCached runs with m.mu held by Score's locked section
func (m *Mechanism) itemMeanCached(item core.EntityID) (core.TrustValue, bool) {
	r := m.itemMemo.Get(nil, item, func() itemMeanResult {
		tv, ok := m.itemMean(item)
		return itemMeanResult{tv, ok}
	})
	return r.tv, r.ok
}

// consumers is the recompute path behind consumersCached.
//
//lint:guarded consumers runs with m.mu held by its callers
func (m *Mechanism) consumers() []core.ConsumerID {
	out := make([]core.ConsumerID, 0, len(m.ratings))
	for id := range m.ratings {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// consumersCached memoizes the sorted consumer list until a new
// consumer appears. Callers iterate but never mutate it.
//
//lint:guarded consumersCached runs with m.mu held by Score's locked section
func (m *Mechanism) consumersCached() []core.ConsumerID {
	return m.consMemo.Get(&m.consEpoch, m.consumers)
}

// meanOfCached memoizes meanOf per consumer; a submit from the consumer
// drops just that entry.
//
//lint:guarded meanOfCached runs with m.mu held by Score's locked section
func (m *Mechanism) meanOfCached(c core.ConsumerID, row map[core.EntityID]float64) float64 {
	return m.meanMemo.Get(nil, c, func() float64 { return meanOf(row) })
}

func meanOf(row map[core.EntityID]float64) float64 {
	if len(row) == 0 {
		return 0.5
	}
	ids := make([]core.EntityID, 0, len(row))
	for id := range row {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	sum := 0.0
	for _, id := range ids {
		sum += row[id]
	}
	return sum / float64(len(row))
}
