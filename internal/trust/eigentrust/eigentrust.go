// Package eigentrust implements the EigenTrust algorithm of Kamvar,
// Schlosser & Garcia-Molina [11/12]: each peer's local trust values are
// normalized into a stochastic matrix C, and the global trust vector is the
// left principal eigenvector of C computed by power iteration with a
// teleport to pre-trusted peers — transitive trust aggregated over the
// whole network ("your trust in those you trust, applied to whom they
// trust", the same intuition as PageRank but seeded by experience).
//
// The survey classifies EigenTrust as decentralized / person / global. The
// implementation computes the same fixpoint the distributed protocol
// converges to; when built over a p2p.Network it additionally charges the
// per-iteration message traffic the distributed computation would cost, so
// experiment C6 can compare communication budgets honestly.
package eigentrust

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"wstrust/internal/core"
	"wstrust/internal/p2p"
)

// alpha is the teleport weight toward pre-trusted peers.
const alpha float64 = 0.15

// iters is exact mode's power-iteration count; ε mode stops after at most
// 8·iters rounds.
const iters = 25

// Option configures the mechanism.
type Option func(*Mechanism)

// WithPreTrusted declares the pre-trusted peer set P (the algorithm's
// anchor against malicious collectives).
func WithPreTrusted(ids ...core.EntityID) Option {
	return func(m *Mechanism) {
		m.preTrusted = map[core.EntityID]bool{}
		for _, id := range ids {
			m.preTrusted[id] = true
		}
	}
}

// WithNetwork attaches a p2p network; every recompute then charges the
// distributed protocol's messages (one per matrix edge per iteration).
func WithNetwork(net *p2p.Network) Option {
	return func(m *Mechanism) { m.net = net }
}

// WithEpsilon enables incremental mode: the mechanism keeps its previous
// fixpoint vector and, on each submit, accumulates the sparse local-trust
// delta the new rating induces. The next Score or Tick restarts power
// iteration from the warm vector, propagating only the delta until its L1
// norm falls to eps — steady-state cost O(affected entries) instead of a
// full recompute. Results track the exact mode within the documented
// ε-closeness bound (DESIGN.md §8); the exact mode (eps = 0, the default)
// reruns the fixed-round pass from the teleport vector after every change,
// stays bit-compatible with earlier releases and remains what wsxsim runs.
func WithEpsilon(eps float64) Option {
	return func(m *Mechanism) {
		if eps > 0 {
			m.eps = eps
		}
	}
}

// Mechanism is the EigenTrust engine. Safe for concurrent use.
type Mechanism struct {
	eps float64 // >0 enables incremental (warm-start) mode
	// rebaseEvery bounds ε-mode drift: every max(rebaseEvery, roster size)
	// warm computes the mechanism runs one full dense refresh pass (all
	// rows, from the current vector) that clears the ≤ eps residual each
	// bounded warm compute may leave behind. The roster-size floor keeps
	// the O(roster) pass amortized to O(1) per update. 1024; ignored in
	// exact mode.
	rebaseEvery int
	preTrusted  map[core.EntityID]bool
	net         *p2p.Network

	mu     sync.Mutex
	local  map[core.EntityID]map[core.EntityID]float64 // rater → subject → Σ(sat−unsat), floored at 0
	counts map[core.EntityID]int
	joined map[core.EntityID]bool
	// The indexed basis both modes compute on (see incremental.go). Exact
	// mode marks it cold on every Submit and Tick, so each read after a
	// change reruns the full fixed-round pass and bills its messages.
	inc       *incState             // guarded by mu
	lastStats core.ConvergenceStats // guarded by mu
}

var (
	_ core.Mechanism           = (*Mechanism)(nil)
	_ core.Ticker              = (*Mechanism)(nil)
	_ core.CostReporter        = (*Mechanism)(nil)
	_ core.ConvergenceReporter = (*Mechanism)(nil)
)

// New builds an EigenTrust mechanism.
//
//lint:guarded New constructs the mechanism; it is not shared until returned
func New(opts ...Option) *Mechanism {
	m := &Mechanism{
		rebaseEvery: 1024,
		local:       map[core.EntityID]map[core.EntityID]float64{},
		counts:      map[core.EntityID]int{},
		joined:      map[core.EntityID]bool{},
	}
	for _, opt := range opts {
		opt(m)
	}
	m.inc = newIncState()
	return m
}

// Name implements core.Mechanism.
func (m *Mechanism) Name() string { return "eigentrust" }

// Submit implements core.Mechanism: satisfactory interactions raise the
// rater's local trust in the subject, unsatisfactory ones lower it;
// EigenTrust floors local trust at zero before normalizing.
func (m *Mechanism) Submit(fb core.Feedback) error {
	if err := fb.Validate(); err != nil {
		return fmt.Errorf("eigentrust: %w", err)
	}
	v := fb.Overall()
	delta := 0.0
	switch {
	case v > 0.6:
		delta = 1
	case v < 0.4:
		delta = -1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	row, ok := m.local[fb.Consumer]
	if !ok {
		row = map[core.EntityID]float64{}
		m.local[fb.Consumer] = row
	}
	old := row[fb.Service]
	row[fb.Service] = math.Max(0, old+delta)
	m.counts[fb.Service]++
	if m.eps == 0 {
		m.inc.cold = true
	}
	m.noteSubmitLocked(fb.Consumer, fb.Service, old, row[fb.Service])
	return nil
}

// Tick brings the global trust vector up to date eagerly (and charges the
// round's protocol messages), whether or not queries are pending. In exact
// mode every Tick reruns the full pass.
func (m *Mechanism) Tick(time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.eps == 0 {
		m.inc.cold = true
	}
	m.refreshLocked()
}

// powerIterateLocked recomputes the fixpoint t ← (1−α)·Cᵀt + α·p over
// every row of the basis. Exact mode runs the fixed iters rounds; ε mode
// runs until a round moves t by at most eps in L1. warm seeds from the
// current vector (ε mode's periodic drift-clearing pass); cold seeds from
// the teleport vector. The result reflects every submitted rating, so
// pending deltas are discarded rather than replayed.
//
// Rows are visited in rater-ID order and each product is formed as
// ((1−α)·t[i])·(v/rowSum): the order and form the n×n build accumulated
// in, so exact-mode scores keep their bits.
//
//lint:guarded powerIterateLocked runs with m.mu held via refreshLocked
func (m *Mechanism) powerIterateLocked(warm bool) {
	s := m.inc
	n := len(s.peers)
	s.computes = 0
	s.lastResiduals = s.lastResiduals[:0]
	if len(s.order) < n { // the roster grew: extend and re-sort the ID order
		for i := len(s.order); i < n; i++ {
			s.order = append(s.order, i)
		}
		slices.SortFunc(s.order, func(a, b int) int { return cmp.Compare(s.peers[a], s.peers[b]) })
	}
	// Teleport vector p: uniform over the pre-trusted peers present, or
	// over every peer when none is.
	pre := 0
	for i, p := range s.peers {
		s.tele[i] = 0
		if m.preTrusted[p] {
			s.tele[i] = 1
			pre++
		}
	}
	if pre == 0 {
		for i := range s.tele {
			s.tele[i] = 1
		}
		pre = n
	}
	for i := range s.tele {
		s.tele[i] /= float64(pre)
	}
	// CSR snapshot of the normalized rows C[i] = local(i,·)/rowSum[i], in
	// ID order: row r (peer order[r]) spans col/w[rowEnd[r-1]:rowEnd[r]].
	s.rowEnd, s.col, s.w = s.rowEnd[:0], s.col[:0], s.w[:0]
	for _, i := range s.order {
		if sum := s.rowSum[i]; sum > 0 {
			for sub, v := range m.local[s.peers[i]] { // distinct targets per row
				if v > 0 {
					s.col = append(s.col, s.idx[sub])
					s.w = append(s.w, v/sum)
				}
			}
		}
		s.rowEnd = append(s.rowEnd, len(s.col))
	}
	t, next := s.t, s.next
	if !warm {
		copy(t, s.tele)
	}
	limit := iters
	if m.eps > 0 {
		limit = 8 * iters
	}
	rounds, res := 0, 0.0
	for rounds < limit {
		for j := range next {
			next[j] = alpha * s.tele[j]
		}
		start := 0
		for r, i := range s.order {
			if ti := t[i]; ti != 0 {
				for e := start; e < s.rowEnd[r]; e++ {
					next[s.col[e]] += (1 - alpha) * ti * s.w[e]
				}
			}
			start = s.rowEnd[r]
		}
		res = 0
		for _, j := range s.order {
			res += math.Abs(next[j] - t[j])
		}
		t, next = next, t
		rounds++
		s.lastResiduals = append(s.lastResiduals, res)
		if m.eps > 0 && res <= m.eps {
			break
		}
	}
	clear(next)
	s.t, s.next = t, next
	for _, j := range s.pendIx {
		s.pend[j] = 0
		s.inPend[j] = false
	}
	s.pendIx = s.pendIx[:0]
	s.newRated = s.newRated[:0]
	s.cold = false
	m.rescanMaxLocked()
	m.chargeLocked(len(s.col) * rounds)
	m.lastStats = core.ConvergenceStats{Iterations: rounds, Residual: res, WarmStart: warm}
}

// chargeLocked bills msgs protocol messages to the attached network, if
// any: every peer joins, and msgs/2 exchanges run between the two lowest
// peer IDs of the last dense pass, each a request and its reply. A dense
// pass bills one message per positive local-trust entry per round, a
// sparse propagation one per push.
//
//lint:guarded chargeLocked runs with m.mu held by its callers
func (m *Mechanism) chargeLocked(msgs int) {
	if m.net == nil {
		return
	}
	s := m.inc
	for _, p := range s.peers {
		if !m.joined[p] {
			m.net.Join(p2p.NodeID(p), func(p2p.NodeID, string, any) any { return "ack" })
			m.joined[p] = true
		}
	}
	if len(s.order) < 2 {
		return
	}
	a, b := p2p.NodeID(s.peers[s.order[0]]), p2p.NodeID(s.peers[s.order[1]])
	for i := 0; i < msgs/2; i++ {
		_, _ = m.net.Send(a, b, "et.exchange", nil)
	}
}

// Score implements core.Mechanism: the subject's global trust normalized by
// the best-known rated subject.
func (m *Mechanism) Score(q core.Query) (core.TrustValue, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.refreshLocked()
	if m.counts[q.Subject] == 0 {
		return core.TrustValue{Score: 0.5, Confidence: 0}, false
	}
	s := m.inc
	score := 0.0
	if j, ok := s.idx[q.Subject]; ok && s.maxSub > 0 {
		score = math.Min(1, s.t[j]/s.maxSub)
	}
	n := float64(m.counts[q.Subject])
	return core.TrustValue{Score: score, Confidence: n / (n + 5)}, true
}

// MessageCount implements core.CostReporter.
func (m *Mechanism) MessageCount() int64 {
	if m.net == nil {
		return 0
	}
	return m.net.MessageCount()
}
