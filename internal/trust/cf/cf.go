// Package cf implements collaborative filtering for web service selection —
// the centralized / resource / personalized branch of the survey's
// Figure 4. It follows the memory-based predictor of Breese, Heckerman &
// Kadie [3] with its two similarity measures (Pearson correlation and
// vector/cosine similarity), the design space Karta [13] investigates for
// web services, and the recommender-based dynamic selection of Manikrao &
// Prabhakar [17].
//
// The mechanism keeps a consumer × service rating matrix (latest rating
// wins) and predicts the rating a perspective consumer would give an
// unconsumed service from the ratings of the k most similar consumers.
//
// Submit gives each consumer and service a dense index on first sight and
// keeps every rating twice: in the consumer's row, sorted by service ID,
// and in the service's column, sorted by consumer ID (a re-rating
// overwrites both in place). A similarity is a merge-join of two rows;
// Score walks only the subject's column. Consumer and item means and
// pairwise similarities are cached in slots stamped with the versions of
// the rows and column they were computed from, so a Submit invalidates by
// bumping counters. Every sum runs in ID order (items inside a similarity
// and a consumer mean, raters in an item mean and the neighbor walk), the
// order a recompute from scratch over sorted IDs uses, so scores are
// bit-identical to it: reference_test.go keeps that recompute as a
// map-based reference and compares bits.
package cf

import (
	"fmt"
	"math"
	"slices"
	"strings"
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

const (
	// neighbors is the neighborhood size k: a prediction uses at most the
	// k raters most similar to the perspective.
	neighbors = 10
	// minOverlap is the number of co-rated items a similarity needs
	// before it is trusted.
	minOverlap = 2
)

// cell is one rating in a row or a column. key and idx name the other
// side — the service in a consumer's row, the consumer in a service's
// column — and key orders the slice.
type cell struct {
	key core.EntityID
	idx int
	v   float64
}

func byKey(c cell, key core.EntityID) int { return strings.Compare(string(c.key), string(key)) }

// consumer is one interned consumer. ver counts the Submits that changed
// row; it is at least 1, so a zero stamp never matches. mean is valid
// while meanVer == ver.
type consumer struct {
	row     []cell // by service ID
	ver     uint64
	mean    float64
	meanVer uint64
	// sims[b] is the similarity of this consumer, as perspective, to
	// consumer b.
	sims []simSlot
}

// service is one interned service. ver counts the Submits that changed
// col; mean is valid while meanVer == ver.
type service struct {
	col     []cell // by consumer ID
	ver     uint64
	mean    core.TrustValue
	meanVer uint64
}

// simSlot holds one similarity outcome, including the below-minimum
// rejection, and the perspective's and the rater's versions it was
// computed at.
type simSlot struct {
	s  float64
	ok bool
	at [2]uint64
}

// pair is one co-rated item of a similarity: both ratings.
type pair struct{ x, y float64 }

// Mechanism is the collaborative-filtering engine. Safe for concurrent use.
type Mechanism struct {
	sim Similarity

	mu     sync.Mutex
	conIdx map[core.ConsumerID]int // guarded by mu
	svcIdx map[core.EntityID]int   // guarded by mu
	cons   []consumer              // guarded by mu
	svcs   []service               // guarded by mu
	// pairs and nbScratch are similarity's and Score's reused buffers.
	pairs     []pair     // guarded by mu
	nbScratch []neighbor // guarded by mu
}

var _ core.Mechanism = (*Mechanism)(nil)

// New builds a collaborative-filtering mechanism.
func New(opts ...Option) *Mechanism {
	m := &Mechanism{
		sim:    Pearson,
		conIdx: map[core.ConsumerID]int{},
		svcIdx: map[core.EntityID]int{},
	}
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// Name implements core.Mechanism.
func (m *Mechanism) Name() string { return "cf-" + m.sim.String() }

// Submit implements core.Mechanism.
func (m *Mechanism) Submit(fb core.Feedback) error {
	if err := fb.Validate(); err != nil {
		return fmt.Errorf("cf: %w", err)
	}
	v := fb.Overall()
	m.mu.Lock()
	defer m.mu.Unlock()
	ci, ok := m.conIdx[fb.Consumer]
	if !ok {
		ci = len(m.cons)
		m.conIdx[fb.Consumer] = ci
		m.cons = append(m.cons, consumer{})
	}
	si, ok := m.svcIdx[fb.Service]
	if !ok {
		si = len(m.svcs)
		m.svcIdx[fb.Service] = si
		m.svcs = append(m.svcs, service{})
	}
	c, s := &m.cons[ci], &m.svcs[si]
	r, existed := slices.BinarySearchFunc(c.row, fb.Service, byKey)
	if existed && c.row[r].v == v {
		return nil // identical overwrite: no derived state moves
	}
	k, _ := slices.BinarySearchFunc(s.col, fb.Consumer, byKey)
	if existed {
		c.row[r].v, s.col[k].v = v, v
	} else {
		c.row = slices.Insert(c.row, r, cell{fb.Service, si, v})
		s.col = slices.Insert(s.col, k, cell{fb.Consumer, ci, v})
	}
	c.ver++
	s.ver++
	return nil
}

// similarity computes sim(a,b) over co-rated items. It merges the two
// ID-sorted rows into m.pairs, so the sums run in item-ID order; ok is
// false when the overlap is below the minimum.
//
//lint:guarded similarity runs with m.mu held by its callers
func (m *Mechanism) similarity(a, b []cell) (float64, bool) {
	ps := m.pairs[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].idx == b[j].idx:
			ps = append(ps, pair{a[i].v, b[j].v})
			i++
			j++
		case a[i].key < b[j].key:
			i++
		default:
			j++
		}
	}
	m.pairs = ps
	if len(ps) < minOverlap {
		return 0, false
	}
	switch m.sim {
	case Cosine:
		var dot, na, nb float64
		for _, p := range ps {
			dot += p.x * p.y
			na += p.x * p.x
			nb += p.y * p.y
		}
		if na == 0 || nb == 0 {
			return 0, false
		}
		return dot / (math.Sqrt(na) * math.Sqrt(nb)), true
	default: // Pearson
		var sx, sy float64
		for _, p := range ps {
			sx += p.x
			sy += p.y
		}
		n := float64(len(ps))
		mx, my := sx/n, sy/n
		var cov, vx, vy float64
		for _, p := range ps {
			cov += (p.x - mx) * (p.y - my)
			vx += (p.x - mx) * (p.x - mx)
			vy += (p.y - my) * (p.y - my)
		}
		if vx == 0 || vy == 0 {
			return 0, false
		}
		return cov / (math.Sqrt(vx) * math.Sqrt(vy)), true
	}
}

// simOf returns the similarity of perspective a to rater b from a's slot,
// recomputing it when either row has moved since.
//
//lint:guarded simOf runs with m.mu held by its callers
func (m *Mechanism) simOf(a, b int) (float64, bool) {
	ca, cb := &m.cons[a], &m.cons[b]
	if b >= len(ca.sims) {
		ca.sims = append(ca.sims, make([]simSlot, len(m.cons)-len(ca.sims))...)
	}
	sl, at := &ca.sims[b], [2]uint64{ca.ver, cb.ver}
	if sl.at != at {
		sl.s, sl.ok = m.similarity(ca.row, cb.row)
		sl.at = at
	}
	return sl.s, sl.ok
}

// SimilarityBetween exposes the configured similarity between two
// consumers, for experiments and diagnostics.
func (m *Mechanism) SimilarityBetween(a, b core.ConsumerID) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ia, ok1 := m.conIdx[a]
	ib, ok2 := m.conIdx[b]
	if !ok1 || !ok2 {
		return 0, false
	}
	return m.simOf(ia, ib)
}

// neighbor is one of the k raters of the subject most similar to the
// perspective.
type neighbor struct {
	idx int
	sim float64
	val float64
}

// Score implements core.Mechanism. With a perspective it predicts that
// consumer's rating of the subject from similar consumers; without one it
// answers the item's shrunken mean (the global fallback Manikrao &
// Prabhakar use before enough personal history exists).
//
//lint:hotpath the steady path reuses nbScratch and the stamped slots.
func (m *Mechanism) Score(q core.Query) (core.TrustValue, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()

	si, rated := m.svcIdx[q.Subject]
	if !rated {
		return core.TrustValue{Score: 0.5, Confidence: 0}, false
	}
	if q.Perspective == "" {
		return m.itemMean(si), true
	}
	ci, known := m.conIdx[q.Perspective]
	if !known {
		return m.itemMean(si), true
	}
	me := &m.cons[ci]
	// Direct experience short-circuits: the consumer knows this service.
	if r, direct := slices.BinarySearchFunc(me.row, q.Subject, byKey); direct {
		return core.TrustValue{Score: me.row[r].v, Confidence: 0.9}, true
	}
	myMean := m.meanOf(ci)

	// Keep the k most similar raters, best first. The column runs in
	// consumer-ID order, so of two equal similarities the lower ID stays
	// ahead: the order a sort by (similarity desc, ID) gives.
	nbs := m.nbScratch[:0]
	for _, x := range m.svcs[si].col {
		s, ok := m.simOf(ci, x.idx)
		if !ok || s <= 0 {
			continue
		}
		i := len(nbs)
		for i > 0 && s > nbs[i-1].sim {
			i--
		}
		if i == neighbors {
			continue
		}
		if len(nbs) < neighbors {
			nbs = append(nbs, neighbor{})
		}
		copy(nbs[i+1:], nbs[i:])
		nbs[i] = neighbor{x.idx, s, x.v}
	}
	m.nbScratch = nbs
	if len(nbs) == 0 {
		return m.itemMean(si), true
	}
	var num, den float64
	for _, nb := range nbs {
		num += nb.sim * (nb.val - m.meanOf(nb.idx))
		den += math.Abs(nb.sim)
	}
	pred := myMean + num/den
	pred = math.Max(0, math.Min(1, pred))
	conf := den / (den + 2)
	return core.TrustValue{Score: pred, Confidence: conf}, true
}

// itemMean is service si's mean shrunk toward neutral, summed over its
// column in consumer-ID order and cached for the column's version.
//
//lint:guarded itemMean runs with m.mu held by Score's locked section
func (m *Mechanism) itemMean(si int) core.TrustValue {
	s := &m.svcs[si]
	if s.meanVer != s.ver {
		var sum, n float64
		for _, x := range s.col {
			sum += x.v
			n++
		}
		score := (sum + 0.5*3) / (n + 3) // mild shrinkage toward neutral
		s.mean, s.meanVer = core.TrustValue{Score: score, Confidence: n / (n + 5)}, s.ver
	}
	return s.mean
}

// meanOf is consumer ci's mean rating, summed over its row in service-ID
// order and cached for the row's version.
//
//lint:guarded meanOf runs with m.mu held by Score's locked section
func (m *Mechanism) meanOf(ci int) float64 {
	c := &m.cons[ci]
	if c.meanVer != c.ver {
		sum := 0.0
		for _, x := range c.row {
			sum += x.v
		}
		c.mean, c.meanVer = sum/float64(len(c.row)), c.ver
	}
	return c.mean
}
