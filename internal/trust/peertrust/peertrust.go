// Package peertrust implements PeerTrust (Xiong & Liu [33]): a peer's
// trust value is the credibility-weighted average of the satisfaction its
// transactions produced,
//
//	T(u) = Σᵢ S(u,i)·Cr(p(u,i)) / Σᵢ Cr(p(u,i))
//
// PeerTrust's general metric adds a community-context term weighted by β;
// this implementation runs it with β = 0. Credibility uses the
// personalized similarity measure (PSM): an evaluator weighs a rater by
// how similarly that rater scored the subjects both have rated — feedback
// from like-scoring peers counts more, which is PeerTrust's defense
// against badmouthing collectives.
package peertrust

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"wstrust/internal/core"
	"wstrust/internal/p2p"
)

// Option configures the mechanism.
type Option func(*Mechanism)

// WithNetwork attaches a p2p transport; feedback submission and rating
// gathering are then charged as peer messages, reflecting PeerTrust's
// decentralized deployment where each peer stores its own transaction
// records and evaluators fetch them on demand.
func WithNetwork(net *p2p.Network) Option {
	return func(m *Mechanism) { m.net = net }
}

type rating struct {
	rater core.ConsumerID
	value float64
}

// Mechanism is the PeerTrust engine. Safe for concurrent use.
type Mechanism struct {
	net *p2p.Network

	mu      sync.Mutex
	ratings map[core.EntityID][]rating
	byRater map[core.ConsumerID]map[core.EntityID]float64
	joined  map[p2p.NodeID]bool

	// Caches over the local math only — the per-rating charge() exchanges
	// in Submit and Score always hit the network, so cached and uncached
	// runs report identical message counts.
	meanMemo core.KeyedMemo[core.EntityID, meanResult] // guarded by mu
	// gcredMemo caches global (consensus-deviation) credibility per
	// rater; a rating about s drops every rater of s.
	gcredMemo core.KeyedMemo[core.ConsumerID, float64] // guarded by mu
	// psmCache[a][b] caches psm(a,b) as called; a row change for c
	// deletes row c and column c.
	psmCache map[core.ConsumerID]map[core.ConsumerID]psmResult // guarded by mu
}

// psmResult caches one psm(a,b) outcome, including the thin-overlap miss.
type psmResult struct {
	s  float64
	ok bool
}

// meanResult caches one subjectMean outcome, including the unrated miss.
type meanResult struct {
	v  float64
	ok bool
}

var (
	_ core.Mechanism    = (*Mechanism)(nil)
	_ core.CostReporter = (*Mechanism)(nil)
)

// charge bills one peer exchange on the attached network, joining the
// endpoints lazily with ack handlers.
func (m *Mechanism) charge(from, to core.EntityID) {
	if m.net == nil || from == to {
		return
	}
	for _, id := range []p2p.NodeID{p2p.NodeID(from), p2p.NodeID(to)} {
		if !m.joined[id] {
			m.net.Join(id, func(p2p.NodeID, string, any) any { return "ack" })
			m.joined[id] = true
		}
	}
	_, _ = m.net.Send(p2p.NodeID(from), p2p.NodeID(to), "pt.exchange", nil)
}

// MessageCount implements core.CostReporter.
func (m *Mechanism) MessageCount() int64 {
	if m.net == nil {
		return 0
	}
	return m.net.MessageCount()
}

// New builds a PeerTrust mechanism.
func New(opts ...Option) *Mechanism {
	m := &Mechanism{
		ratings:  map[core.EntityID][]rating{},
		byRater:  map[core.ConsumerID]map[core.EntityID]float64{},
		joined:   map[p2p.NodeID]bool{},
		psmCache: map[core.ConsumerID]map[core.ConsumerID]psmResult{},
	}
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// Name implements core.Mechanism.
func (m *Mechanism) Name() string { return "peertrust" }

// Submit implements core.Mechanism.
func (m *Mechanism) Submit(fb core.Feedback) error {
	if err := fb.Validate(); err != nil {
		return fmt.Errorf("peertrust: %w", err)
	}
	v := fb.Overall()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ratings[fb.Service] = append(m.ratings[fb.Service], rating{fb.Consumer, v})
	row, ok := m.byRater[fb.Consumer]
	if !ok {
		row = map[core.EntityID]float64{}
		m.byRater[fb.Consumer] = row
	}
	old, existed := row[fb.Service]
	row[fb.Service] = v

	// Invalidate what this rating can influence: the subject's mean (and
	// with it the consensus credibility of everyone who rated it), plus —
	// when the rater's latest-value row actually moved — similarities
	// involving the rater.
	m.meanMemo.Drop(fb.Service)
	for _, r := range m.ratings[fb.Service] {
		m.gcredMemo.Drop(r.rater)
	}
	if !existed || old != v {
		m.dropPsmLocked(fb.Consumer)
	}
	m.charge(fb.Consumer, fb.Service)
	return nil
}

// dropPsmLocked evicts every cached similarity involving c.
//
//lint:guarded dropPsmLocked runs with m.mu held by Submit
func (m *Mechanism) dropPsmLocked(c core.ConsumerID) {
	delete(m.psmCache, c)
	for _, row := range m.psmCache {
		delete(row, c)
	}
}

// psm computes the personalized similarity between two raters: 1 − RMS
// difference over co-rated subjects. ok is false when they share none.
func (m *Mechanism) psm(a, b core.ConsumerID) (float64, bool) {
	ra, rb := m.byRater[a], m.byRater[b]
	if len(ra) == 0 || len(rb) == 0 {
		return 0, false
	}
	var sq float64
	n := 0
	subjects := make([]core.EntityID, 0, len(ra))
	for subj := range ra {
		subjects = append(subjects, subj)
	}
	sort.Slice(subjects, func(i, j int) bool { return subjects[i] < subjects[j] })
	for _, subj := range subjects {
		if vb, ok := rb[subj]; ok {
			d := ra[subj] - vb
			sq += d * d
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return 1 - math.Sqrt(sq/float64(n)), true
}

// psmCached returns psm(a,b) through the pair cache; only row changes
// for a or b evict the entry.
//
//lint:guarded psmCached runs with m.mu held by Score's locked section
func (m *Mechanism) psmCached(a, b core.ConsumerID) (float64, bool) {
	row, ok := m.psmCache[a]
	if ok {
		if r, hit := row[b]; hit {
			return r.s, r.ok
		}
	} else {
		row = map[core.ConsumerID]psmResult{}
		m.psmCache[a] = row
	}
	v, valid := m.psm(a, b)
	row[b] = psmResult{v, valid}
	return v, valid
}

// Score implements core.Mechanism. With a perspective the rater
// credibilities are PSM similarities to that consumer; without one, raters
// are weighted by their similarity to the population consensus (each
// rater's mean absolute deviation from subject means).
func (m *Mechanism) Score(q core.Query) (core.TrustValue, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.ratings[q.Subject]
	if len(rs) == 0 {
		return core.TrustValue{Score: 0.5, Confidence: 0}, false
	}
	var num, den float64
	for _, r := range rs {
		if q.Perspective != "" {
			m.charge(q.Perspective, r.rater)
		}
		cr := m.credibility(q.Perspective, r.rater)
		num += cr * r.value
		den += cr
	}
	score := 0.5
	if den > 0 {
		score = num / den
	}
	n := float64(len(rs))
	return core.TrustValue{
		Score:      math.Max(0, math.Min(1, score)),
		Confidence: n / (n + 5),
	}, true
}

// credibility weights a rater from the evaluator's viewpoint.
//
//lint:guarded credibility runs with m.mu held by Score's locked section
func (m *Mechanism) credibility(perspective, rater core.ConsumerID) float64 {
	if perspective != "" && perspective != rater {
		if s, ok := m.psmCached(perspective, rater); ok {
			return math.Max(0, s)
		}
		return 0.3 // unknown rater: low but non-zero default credibility
	}
	if perspective == rater {
		return 1
	}
	return m.gcredMemo.Get(nil, rater, func() float64 { return m.globalCredLocked(rater) })
}

// globalCredLocked is the consensus-deviation recompute path: agreement
// with per-subject means.
func (m *Mechanism) globalCredLocked(rater core.ConsumerID) float64 {
	row := m.byRater[rater]
	if len(row) == 0 {
		return 0.3
	}
	var dev float64
	n := 0
	subjects := make([]core.EntityID, 0, len(row))
	for subj := range row {
		subjects = append(subjects, subj)
	}
	sort.Slice(subjects, func(i, j int) bool { return subjects[i] < subjects[j] })
	for _, subj := range subjects {
		mean, ok := m.subjectMeanCached(subj)
		if !ok {
			continue
		}
		dev += math.Abs(row[subj] - mean)
		n++
	}
	if n == 0 {
		return 0.3
	}
	return math.Max(0, 1-dev/float64(n))
}

func (m *Mechanism) subjectMean(subj core.EntityID) (float64, bool) {
	rs := m.ratings[subj]
	if len(rs) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, r := range rs {
		sum += r.value
	}
	return sum / float64(len(rs)), true
}

// subjectMeanCached memoizes subjectMean per subject; a rating about the
// subject drops just that entry.
//
//lint:guarded subjectMeanCached runs with m.mu held by its callers
func (m *Mechanism) subjectMeanCached(subj core.EntityID) (float64, bool) {
	r := m.meanMemo.Get(nil, subj, func() meanResult {
		v, ok := m.subjectMean(subj)
		return meanResult{v, ok}
	})
	return r.v, r.ok
}

// RaterCredibility exposes the global credibility of a rater, for
// experiments and diagnostics.
func (m *Mechanism) RaterCredibility(rater core.ConsumerID) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.credibility("", rater)
}

// Raters lists known raters, sorted, for deterministic reporting.
func (m *Mechanism) Raters() []core.ConsumerID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]core.ConsumerID, 0, len(m.byRater))
	for id := range m.byRater {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
