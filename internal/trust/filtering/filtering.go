// Package filtering implements the unfair-rating defenses the paper's
// Section 3.1 question 3 calls for ("How can dishonest feedbacks or unfair
// ratings be detected?"), citing three families:
//
//   - Majority — the robustness-through-majority-opinion approach of Sen &
//     Sajja [26]: ratings are boolean votes, the majority side wins, and
//     raters who persistently land in the minority are excluded.
//   - Cluster — the cluster-filtering approach of Dellarocas [5]: ratings
//     for a subject are split into two clusters (2-means); a far-away
//     minority cluster is the signature of ballot stuffing or badmouthing
//     and is discarded.
//   - ZhangCohen — Zhang & Cohen [38]: each advisor's trustworthiness
//     combines a private reputation (agreement with the evaluator's own
//     experience) and a public reputation (agreement with the majority),
//     weighted by how much private evidence exists.
//
// A None strategy provides the undefended baseline the C5 experiment
// compares against.
package filtering

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"wstrust/internal/core"
)

// Strategy selects the defense.
type Strategy int

const (
	// None is the undefended mean — the attack baseline.
	None Strategy = iota + 1
	// Majority is Sen & Sajja's majority-opinion robustness.
	Majority
	// Cluster is Dellarocas' cluster filtering.
	Cluster
	// ZhangCohen is the private+public advisor-trust model.
	ZhangCohen
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case None:
		return "none"
	case Majority:
		return "majority"
	case Cluster:
		return "cluster"
	case ZhangCohen:
		return "zhang-cohen"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

type entry struct {
	rater core.ConsumerID
	value float64
}

// clusterGap is the minimum distance between cluster means before the
// minority cluster is discarded.
const clusterGap = 0.4

// Mechanism applies the selected defense over a shared rating store.
// Safe for concurrent use.
type Mechanism struct {
	strategy Strategy

	mu      sync.Mutex
	ratings map[core.EntityID][]entry
	latest  map[core.ConsumerID]map[core.EntityID]float64
	// Every majority and Zhang-Cohen Score reads the per-rater agreement
	// rates over the whole store; Submit bumps the epoch, and the rates
	// recompute on the next read after one.
	epoch      core.Epoch
	agreeRates core.Memo[map[core.ConsumerID]float64]
}

var _ core.Mechanism = (*Mechanism)(nil)

// New builds a defended mechanism.
func New(s Strategy) *Mechanism {
	return &Mechanism{
		strategy: s,
		ratings:  map[core.EntityID][]entry{},
		latest:   map[core.ConsumerID]map[core.EntityID]float64{},
	}
}

// Name implements core.Mechanism.
func (m *Mechanism) Name() string { return "filter-" + m.strategy.String() }

// Submit implements core.Mechanism.
func (m *Mechanism) Submit(fb core.Feedback) error {
	if err := fb.Validate(); err != nil {
		return fmt.Errorf("filtering: %w", err)
	}
	v := fb.Overall()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ratings[fb.Service] = append(m.ratings[fb.Service], entry{fb.Consumer, v})
	row, ok := m.latest[fb.Consumer]
	if !ok {
		row = map[core.EntityID]float64{}
		m.latest[fb.Consumer] = row
	}
	row[fb.Service] = v
	m.epoch.Bump()
	return nil
}

// Score implements core.Mechanism.
func (m *Mechanism) Score(q core.Query) (core.TrustValue, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.ratings[q.Subject]
	if len(rs) == 0 {
		return core.TrustValue{Score: 0.5, Confidence: 0}, false
	}
	var score float64
	var kept int
	switch m.strategy {
	case Majority:
		score, kept = m.majorityScore(rs)
	case Cluster:
		score, kept = m.clusterScore(rs)
	case ZhangCohen:
		score, kept = m.zhangCohenScore(q.Perspective, q.Subject, rs)
	default:
		score, kept = meanOf(rs), len(rs)
	}
	n := float64(kept)
	return core.TrustValue{
		Score:      math.Max(0, math.Min(1, score)),
		Confidence: n / (n + 5),
	}, true
}

func meanOf(rs []entry) float64 {
	sum := 0.0
	for _, r := range rs {
		sum += r.value
	}
	return sum / float64(len(rs))
}

// majorityScore: boolean votes; the majority side's mean wins. Raters with
// a poor track record of agreeing with majorities (< 40% across ≥3 votes)
// are excluded before the vote.
func (m *Mechanism) majorityScore(rs []entry) (float64, int) {
	agreeRate := m.agreeRates.Get(&m.epoch, m.majorityAgreementRates)
	var votes []entry
	for _, r := range rs {
		if rate, ok := agreeRate[r.rater]; ok && rate < 0.4 {
			continue
		}
		votes = append(votes, r)
	}
	if len(votes) == 0 {
		votes = rs
	}
	pos := 0
	for _, r := range votes {
		if r.value > 0.5 {
			pos++
		}
	}
	majorityGood := pos*2 >= len(votes)
	var sum float64
	n := 0
	for _, r := range votes {
		if (r.value > 0.5) == majorityGood {
			sum += r.value
			n++
		}
	}
	if n == 0 {
		return meanOf(votes), len(votes)
	}
	return sum / float64(n), n
}

// majorityAgreementRates computes, per rater, how often their vote matched
// the per-subject majority (raters with <3 votes are not judged). The
// tallies are integer counts, so the rates do not depend on the order the
// store is walked in, and the memoized map equals a fresh one bit for bit.
func (m *Mechanism) majorityAgreementRates() map[core.ConsumerID]float64 {
	agree := map[core.ConsumerID]float64{}
	total := map[core.ConsumerID]float64{}
	for _, rs := range m.ratings {
		pos := 0
		for _, r := range rs {
			if r.value > 0.5 {
				pos++
			}
		}
		majorityGood := pos*2 >= len(rs)
		for _, r := range rs {
			total[r.rater]++
			if (r.value > 0.5) == majorityGood {
				agree[r.rater]++
			}
		}
	}
	out := map[core.ConsumerID]float64{}
	for rater, t := range total {
		if t >= 3 {
			out[rater] = agree[rater] / t
		}
	}
	return out
}

// clusterScore: 2-means on rating values; a distant minority cluster is
// dropped.
func (m *Mechanism) clusterScore(rs []entry) (float64, int) {
	if len(rs) < 4 {
		return meanOf(rs), len(rs)
	}
	values := make([]float64, len(rs))
	for i, r := range rs {
		values[i] = r.value
	}
	sort.Float64s(values)
	// Deterministic init: extremes.
	c0, c1 := values[0], values[len(values)-1]
	var assign []int
	for iter := 0; iter < 20; iter++ {
		assign = assign[:0]
		var s0, n0, s1, n1 float64
		for _, v := range values {
			if math.Abs(v-c0) <= math.Abs(v-c1) {
				assign = append(assign, 0)
				s0 += v
				n0++
			} else {
				assign = append(assign, 1)
				s1 += v
				n1++
			}
		}
		if n0 > 0 {
			c0 = s0 / n0
		}
		if n1 > 0 {
			c1 = s1 / n1
		}
	}
	var n0, n1 float64
	for _, a := range assign {
		if a == 0 {
			n0++
		} else {
			n1++
		}
	}
	if n0 == 0 || n1 == 0 || math.Abs(c0-c1) < clusterGap {
		return meanOf(rs), len(rs)
	}
	// Keep the majority cluster.
	keep := 0
	if n1 > n0 {
		keep = 1
	}
	var sum, n float64
	for i, v := range values {
		if assign[i] == keep {
			sum += v
			n++
		}
	}
	return sum / n, int(n)
}

// zhangCohenScore weighs each advisor by trust = w·private + (1−w)·public.
func (m *Mechanism) zhangCohenScore(perspective core.ConsumerID, subject core.EntityID, rs []entry) (float64, int) {
	public := m.agreeRates.Get(&m.epoch, m.majorityAgreementRates)
	mine := m.latest[perspective]
	var num, den float64
	kept := 0
	for _, r := range rs {
		if r.rater == perspective {
			num += 1 * r.value
			den += 1
			kept++
			continue
		}
		private, overlap := m.privateReputation(mine, m.latest[r.rater])
		pub, hasPub := public[r.rater]
		if !hasPub {
			pub = 0.5
		}
		// Reliability weight of the private estimate grows with overlap.
		w := overlap / (overlap + 3)
		trust := w*private + (1-w)*pub
		if trust < 0.25 {
			continue // advisor deemed unfair
		}
		num += trust * r.value
		den += trust
		kept++
	}
	if den == 0 {
		return meanOf(rs), len(rs)
	}
	return num / den, kept
}

// privateReputation: agreement between the evaluator's and the advisor's
// latest ratings on co-rated subjects; returns the Beta-mean agreement and
// the overlap size.
func (m *Mechanism) privateReputation(mine, theirs map[core.EntityID]float64) (float64, float64) {
	if len(mine) == 0 || len(theirs) == 0 {
		return 0.5, 0
	}
	var hit, n float64
	for subj, mv := range mine {
		tv, ok := theirs[subj]
		if !ok {
			continue
		}
		n++
		if math.Abs(mv-tv) < 0.3 {
			hit++
		}
	}
	if n == 0 {
		return 0.5, 0
	}
	return (hit + 1) / (n + 2), n
}
