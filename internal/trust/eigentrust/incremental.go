// Incremental (warm-start) EigenTrust: instead of invalidating the whole
// fixpoint on every rating, the mechanism keeps its previous trust vector
// and accumulates, at Submit time, the first-round delta the rating's
// local-trust change induces — delta₀ = (1−α)·(C_new−C_old)ᵀ·t. Because t
// only moves when a refresh applies it, per-submit contributions telescope:
// N submits between refreshes accumulate exactly (1−α)·(C_N−C_0)ᵀ·t. The
// next Score or Tick then propagates the pending delta sparsely —
// delta_{k+1} = (1−α)·Cᵀ·delta_k, touching only rows reachable from the
// edits — until its L1 norm falls below eps. C is row-substochastic, so
// each round contracts the residual by at least (1−α): the bound is
// monotone non-increasing (FuzzWarmStartResidual's invariant) and the loop
// terminates in O(log(‖delta₀‖/eps)) rounds. See DESIGN.md §8 for the
// soundness conditions and the ε-closeness contract.
//
// The indexed basis below is also all the exact mode keeps: it marks the
// basis cold on every change and reruns powerIterateLocked from scratch.
package eigentrust

import (
	"math"
	"slices"

	"wstrust/internal/core"
)

// incState is the engine's persistent state: the current trust vector,
// the pending (not yet propagated) delta, incrementally maintained row
// sums, and reusable propagation and power-iteration scratch. All fields
// are guarded by Mechanism.mu. Peer indices are append-only; dense vectors
// grow with the roster and are reused across submits, so the steady state
// (no new peers) allocates nothing.
type incState struct {
	idx    map[core.EntityID]int // peer → dense index, append-only
	peers  []core.EntityID       // dense index → peer, in insertion order
	order  []int                 // dense indices sorted by peer ID, as of the last dense pass
	t      []float64             // current trust estimate (the warm basis)
	tele   []float64             // teleport vector p of the last dense pass
	rowSum []float64             // Σ_j local(i,j), maintained exactly (integer-valued)

	// CSR snapshot of the normalized rows, built by each dense pass.
	rowEnd []int
	col    []int
	w      []float64

	pend   []float64 // pending delta accumulated by Submit, dense
	inPend []bool    // membership marks for pendIx
	pendIx []int     // indices with pend ≠ 0 (unsorted; sorted before use)

	cur, next []float64 // propagation front buffers
	inNext    []bool
	curIx     []int
	nextIx    []int

	newRated      []int     // indices whose counts went 0→1 since last refresh
	lastResiduals []float64 // per-round L1 residuals of the last compute

	maxSub   float64 // max t over rated subjects (the score normalizer)
	maxIdx   int     // index holding maxSub
	computes int     // warm computes since the last dense pass (rebase clock)

	cold   bool // no basis, or the teleport vector changed shape: next refresh is dense from p
	rescan bool // maxSub may have decreased; rescan before scoring
}

func newIncState() *incState {
	return &incState{idx: map[core.EntityID]int{}, maxIdx: -1, cold: true}
}

// ensureIncIdxLocked interns id into the dense index, growing every vector
// alongside. A peer joining marks the basis cold whenever the teleport
// vector's shape depends on the roster: always when no pre-trusted set
// was declared (p is uniform over n), and when the newcomer is itself
// pre-trusted (p renormalizes over the present subset).
//
//lint:guarded ensureIncIdxLocked runs with m.mu held by its callers
func (m *Mechanism) ensureIncIdxLocked(id core.EntityID) int {
	s := m.inc
	if j, ok := s.idx[id]; ok {
		return j
	}
	j := len(s.peers)
	s.idx[id] = j
	s.peers = append(s.peers, id)
	s.t = append(s.t, 0)
	s.tele = append(s.tele, 0)
	s.rowSum = append(s.rowSum, 0)
	s.pend = append(s.pend, 0)
	s.inPend = append(s.inPend, false)
	s.cur = append(s.cur, 0)
	s.next = append(s.next, 0)
	s.inNext = append(s.inNext, false)
	if len(m.preTrusted) == 0 || m.preTrusted[id] {
		s.cold = true
	}
	return j
}

// noteSubmitLocked folds one local-trust edit (rater's value for subject
// moved oldVal→newVal) into the pending delta. Called under mu from Submit
// after m.local and m.counts are updated. This is the per-rating steady
// path: everything it touches is preallocated, growth happens only when
// the roster itself grows.
//
//lint:hotpath
//lint:guarded noteSubmitLocked runs with m.mu held by Submit
func (m *Mechanism) noteSubmitLocked(rater, subject core.EntityID, oldVal, newVal float64) {
	s := m.inc
	i := m.ensureIncIdxLocked(rater)
	j := m.ensureIncIdxLocked(subject)
	oldSum := s.rowSum[i]
	newSum := oldSum + (newVal - oldVal) // values are small non-negative ints: float-exact
	s.rowSum[i] = newSum
	if m.counts[subject] == 1 {
		s.newRated = append(s.newRated, j)
	}
	if s.cold {
		return // no basis to delta against; next refresh is dense anyway
	}
	ti := s.t[i]
	if newVal == oldVal || ti == 0 {
		return // row unchanged, or the rater carries no trust mass to move
	}
	// delta₀ += (1−α)·t[i]·(C_new[i]−C_old[i]): the rater's whole row
	// renormalizes, so every rated subject shifts, not just j.
	w := (1 - alpha) * ti
	for sub, v := range m.local[rater] { // distinct targets; order-independent writes
		k := s.idx[sub]
		oldv := v
		if sub == subject {
			oldv = oldVal
		}
		var d float64
		if newSum > 0 {
			d += v / newSum
		}
		if oldSum > 0 {
			d -= oldv / oldSum
		}
		if d == 0 {
			continue
		}
		if !s.inPend[k] {
			s.inPend[k] = true
			s.pendIx = append(s.pendIx, k) //lint:hotalloc persistent scratch; amortizes to zero growth in steady state
		}
		s.pend[k] += w * d
	}
}

// refreshLocked brings the trust vector up to date with all submitted
// ratings and records the convergence stats of whatever work that took.
// A cold basis gets a dense pass from the teleport vector; in exact mode
// that is the only regime. ε mode adds two more: the periodic
// drift-clearing dense pass every rebaseEvery warm computes, and sparse
// delta propagation (the steady state), a no-op when nothing is pending.
//
//lint:guarded refreshLocked runs with m.mu held by Score and Tick
func (m *Mechanism) refreshLocked() {
	s := m.inc
	n := len(s.peers)
	if n == 0 {
		m.lastStats = core.ConvergenceStats{}
		return
	}
	// The drift-clearing dense pass costs O(n), so its period must grow
	// with the roster or it dominates the amortized per-update cost (at
	// 100k peers a 1024-compute period charged ~20µs/update). Spacing
	// passes ≥ n warm computes apart keeps the steady state O(affected
	// entries) per update; accumulated truncation drift before each
	// clearing stays ≤ period·eps (the ε-closeness contract, DESIGN.md §8).
	if s.cold || s.computes >= max(m.rebaseEvery, n) {
		m.powerIterateLocked(!s.cold)
		return
	}
	if m.eps == 0 {
		return // exact mode: the vector is current until the next Submit or Tick
	}
	// Rated-roster changes can raise the normalizer without any trust
	// mass moving (a neutral rating on an already-scored subject).
	if len(s.newRated) > 0 {
		for _, j := range s.newRated {
			if s.t[j] > s.maxSub {
				s.maxSub = s.t[j]
				s.maxIdx = j
			}
		}
		s.newRated = s.newRated[:0]
	}
	if len(s.pendIx) == 0 {
		m.lastStats = core.ConvergenceStats{Iterations: 0, Residual: 0, WarmStart: true}
		return
	}
	m.propagateLocked()
	if s.rescan {
		m.rescanMaxLocked()
	}
}

// propagateLocked runs the sparse delta-propagation loop: apply the
// current front to t, then push it one hop through the normalized matrix,
// until the front's L1 norm is ≤ eps. Touched indices are visited in
// sorted order so the float accumulation — and therefore the scores — are
// bit-deterministic regardless of map iteration order upstream.
//
//lint:guarded propagateLocked runs with m.mu held via refreshLocked
func (m *Mechanism) propagateLocked() {
	s := m.inc
	s.computes++
	s.lastResiduals = s.lastResiduals[:0]

	cur, next := s.cur, s.next
	curIx := append(s.curIx[:0], s.pendIx...)
	for _, j := range s.pendIx {
		cur[j] = s.pend[j]
		s.pend[j] = 0
		s.inPend[j] = false
	}
	s.pendIx = s.pendIx[:0]

	maxRounds := 8 * iters
	rounds, res, pushes := 0, 0.0, 0
	for {
		slices.Sort(curIx)
		res = 0
		for _, j := range curIx {
			res += math.Abs(cur[j])
		}
		s.lastResiduals = append(s.lastResiduals, res)
		for _, j := range curIx {
			s.t[j] += cur[j]
			if m.counts[s.peers[j]] > 0 {
				if s.t[j] > s.maxSub {
					s.maxSub = s.t[j]
					s.maxIdx = j
				} else if j == s.maxIdx && s.t[j] < s.maxSub {
					s.rescan = true
				}
			}
		}
		rounds++
		if res <= m.eps || rounds >= maxRounds {
			for _, j := range curIx {
				cur[j] = 0
			}
			break
		}
		// Push the front one hop: next += (1−α)·Cᵀ·cur, rows of touched
		// raters only. Within a row each target index is written once, so
		// map order does not affect the result.
		nextIx := s.nextIx[:0]
		for _, i := range curIx {
			ci := cur[i]
			cur[i] = 0
			if ci == 0 {
				continue
			}
			sum := s.rowSum[i]
			if sum <= 0 {
				continue
			}
			w := (1 - alpha) * ci / sum
			for sub, v := range m.local[s.peers[i]] {
				if v <= 0 {
					continue
				}
				k := s.idx[sub]
				if !s.inNext[k] {
					s.inNext[k] = true
					nextIx = append(nextIx, k)
				}
				next[k] += w * v
				pushes++
			}
		}
		for _, k := range nextIx {
			s.inNext[k] = false
		}
		cur, next = next, cur
		s.curIx, s.nextIx = nextIx, curIx[:0]
		curIx = s.curIx
	}
	s.cur, s.next = cur, next
	s.curIx, s.nextIx = s.curIx[:0], s.nextIx[:0]
	m.chargeLocked(pushes)
	m.lastStats = core.ConvergenceStats{Iterations: rounds, Residual: res, WarmStart: true}
}

// rescanMaxLocked recomputes the score normalizer from scratch: max trust
// over subjects with at least one rating.
//
//lint:guarded rescanMaxLocked runs with m.mu held by its callers
func (m *Mechanism) rescanMaxLocked() {
	s := m.inc
	s.maxSub, s.maxIdx, s.rescan = 0, -1, false
	for j, p := range s.peers {
		if m.counts[p] > 0 && s.t[j] > s.maxSub {
			s.maxSub = s.t[j]
			s.maxIdx = j
		}
	}
}

// LastConvergence implements core.ConvergenceReporter.
func (m *Mechanism) LastConvergence() core.ConvergenceStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastStats
}
