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
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"wstrust/internal/core"
	"wstrust/internal/p2p"
)

// alpha is the teleport weight toward pre-trusted peers.
const alpha float64 = 0.15

// Option configures the mechanism.
type Option func(*Mechanism)

// WithIterations sets the power-iteration count (default 25).
func WithIterations(n int) Option {
	return func(m *Mechanism) {
		if n > 0 {
			m.iters = n
		}
	}
}

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
// distributed protocol's messages (one exchange per matrix edge per
// iteration).
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
// stays bit-compatible with earlier releases and remains what wsxsim runs.
func WithEpsilon(eps float64) Option {
	return func(m *Mechanism) {
		if eps > 0 {
			m.eps = eps
		}
	}
}

// WithRebaseEvery bounds incremental-mode drift: every max(n, roster size)
// warm computes the mechanism runs one full dense refresh pass (all rows,
// from the current vector) that clears the ≤ eps residual each bounded
// warm compute may leave behind. The roster-size floor keeps the O(roster)
// pass amortized to O(1) per update. Default 1024; ignored in exact mode.
func WithRebaseEvery(n int) Option {
	return func(m *Mechanism) {
		if n > 0 {
			m.rebaseEvery = n
		}
	}
}

// Mechanism is the EigenTrust engine. Safe for concurrent use.
type Mechanism struct {
	iters       int
	eps         float64 // >0 enables incremental (warm-start) mode
	rebaseEvery int
	preTrusted  map[core.EntityID]bool
	net         *p2p.Network

	mu     sync.Mutex
	local  map[core.EntityID]map[core.EntityID]float64 // rater → subject → Σ(sat−unsat), floored at 0
	counts map[core.EntityID]int
	joined map[core.EntityID]bool
	// The trust vector is epoch-cached (this package's old ad-hoc dirty
	// flag, generalized into core). Every recompute — lazy in Score,
	// eager in Tick — still charges the distributed protocol's messages,
	// so caching never alters reported communication budgets.
	epoch   core.Epoch         // guarded by mu
	vecMemo core.Memo[etState] // guarded by mu
	// Incremental-mode state (see incremental.go); nil in exact mode.
	inc       *incState             // guarded by mu
	lastStats core.ConvergenceStats // guarded by mu
}

// etState is one computed global trust vector with its normalizer.
type etState struct {
	scores map[core.EntityID]float64
	maxSub float64
}

var (
	_ core.Mechanism           = (*Mechanism)(nil)
	_ core.Ticker              = (*Mechanism)(nil)
	_ core.Resetter            = (*Mechanism)(nil)
	_ core.CostReporter        = (*Mechanism)(nil)
	_ core.ConvergenceReporter = (*Mechanism)(nil)
)

// New builds an EigenTrust mechanism.
//
//lint:guarded New constructs the mechanism; it is not shared until returned
func New(opts ...Option) *Mechanism {
	m := &Mechanism{
		iters:       25,
		rebaseEvery: 1024,
		local:       map[core.EntityID]map[core.EntityID]float64{},
		counts:      map[core.EntityID]int{},
		joined:      map[core.EntityID]bool{},
	}
	for _, opt := range opts {
		opt(m)
	}
	if m.eps > 0 {
		m.inc = newIncState()
	}
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
	m.epoch.Bump()
	if m.inc != nil {
		m.noteSubmitLocked(fb.Consumer, fb.Service, old, row[fb.Service])
	}
	return nil
}

// peers returns all entities appearing as rater or subject, sorted.
func (m *Mechanism) peersLocked() []core.EntityID {
	set := map[core.EntityID]bool{}
	for r, row := range m.local {
		set[r] = true
		for s := range row {
			set[s] = true
		}
	}
	out := make([]core.EntityID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Tick recomputes the global trust vector eagerly (and charges the
// round's protocol messages), whether or not queries are pending.
func (m *Mechanism) Tick(time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.inc != nil {
		m.refreshIncLocked()
		return
	}
	m.vecMemo.Update(&m.epoch, m.computeLocked())
}

//lint:guarded computeLocked runs with m.mu held by Score's locked section
func (m *Mechanism) computeLocked() etState {
	peers := m.peersLocked()
	n := len(peers)
	st := etState{scores: map[core.EntityID]float64{}}
	if n == 0 {
		return st
	}
	idx := make(map[core.EntityID]int, n)
	for i, p := range peers {
		idx[p] = i
	}
	// Normalized matrix C: c[i][j] = local(i,j)/Σ_j local(i,j).
	c := make([][]float64, n)
	edges := 0
	for i, p := range peers {
		row := m.local[p]
		subjects := make([]core.EntityID, 0, len(row))
		for s := range row {
			subjects = append(subjects, s)
		}
		sort.Slice(subjects, func(a, b int) bool { return subjects[a] < subjects[b] })
		var total float64
		for _, s := range subjects {
			total += row[s]
		}
		if total == 0 {
			continue
		}
		c[i] = make([]float64, n)
		for _, s := range subjects {
			if v := row[s]; v > 0 {
				c[i][idx[s]] = v / total
				edges++
			}
		}
	}
	// Distribution p over pre-trusted peers (uniform over all when empty).
	pvec := make([]float64, n)
	pre := 0
	for i, peer := range peers {
		if m.preTrusted[peer] {
			pvec[i] = 1
			pre++
		}
	}
	if pre == 0 {
		for i := range pvec {
			pvec[i] = 1 / float64(n)
		}
	} else {
		for i := range pvec {
			pvec[i] /= float64(pre)
		}
	}
	// Power iteration: t ← (1−α)·Cᵀt + α·p. The final iteration's L1
	// movement doubles as the exact mode's reported residual; computing it
	// never alters the scores.
	t := make([]float64, n)
	copy(t, pvec)
	next := make([]float64, n)
	res := 0.0
	for it := 0; it < m.iters; it++ {
		for j := range next {
			next[j] = alpha * pvec[j]
		}
		for i := range peers {
			if c[i] == nil || t[i] == 0 {
				continue
			}
			for j, cij := range c[i] {
				if cij > 0 {
					next[j] += (1 - alpha) * t[i] * cij
				}
			}
		}
		if it == m.iters-1 {
			for j := range next {
				res += math.Abs(next[j] - t[j])
			}
		}
		t, next = next, t
	}
	m.lastStats = core.ConvergenceStats{Iterations: m.iters, Residual: res, WarmStart: false}
	if m.net != nil {
		m.chargeMessagesLocked(peers, edges)
	}
	for i, p := range peers {
		st.scores[p] = t[i]
		if m.counts[p] > 0 && t[i] > st.maxSub {
			st.maxSub = t[i]
		}
	}
	return st
}

// chargeMessagesLocked bills the distributed protocol's traffic: each
// iteration every peer sends its current trust values over each outgoing
// edge.
func (m *Mechanism) chargeMessagesLocked(peers []core.EntityID, edges int) {
	for _, p := range peers {
		id := p2p.NodeID(p)
		if !m.joined[p] {
			m.net.Join(id, func(p2p.NodeID, string, any) any { return "ack" })
			m.joined[p] = true
		}
	}
	if len(peers) < 2 {
		return
	}
	// Representative exchange: bill edges×iters messages through the
	// network so its counter reflects the real protocol volume.
	a, b := p2p.NodeID(peers[0]), p2p.NodeID(peers[1])
	for i := 0; i < edges*m.iters/2; i++ {
		_, _ = m.net.Send(a, b, "et.exchange", nil)
	}
}

// Score implements core.Mechanism: the subject's global trust normalized by
// the best-known rated subject.
func (m *Mechanism) Score(q core.Query) (core.TrustValue, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.inc != nil {
		return m.scoreIncLocked(q)
	}
	st := m.vecMemo.Get(&m.epoch, m.computeLocked)
	if m.counts[q.Subject] == 0 {
		return core.TrustValue{Score: 0.5, Confidence: 0}, false
	}
	score := 0.0
	if st.maxSub > 0 {
		score = math.Min(1, st.scores[q.Subject]/st.maxSub)
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

// Reset implements core.Resetter.
func (m *Mechanism) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.local = map[core.EntityID]map[core.EntityID]float64{}
	m.counts = map[core.EntityID]int{}
	m.vecMemo.Invalidate()
	m.epoch.Bump()
	if m.inc != nil {
		m.inc = newIncState()
	}
	m.lastStats = core.ConvergenceStats{}
}
