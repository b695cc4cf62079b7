package eigentrust

import (
	"testing"

	"wstrust/internal/core"
)

// residualsSnapshot copies the per-round L1 residuals of the mechanism's
// last compute (in-package access, under the lock Score and Submit take).
func residualsSnapshot(m *Mechanism) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]float64, len(m.inc.lastResiduals))
	copy(out, m.inc.lastResiduals)
	return out
}

// checkResidualsMonotone asserts the warm-start soundness invariant: the
// normalized local-trust matrix is row-substochastic, so each propagation
// (or dense power-iteration) round contracts the L1 residual by at least
// (1−α) — the recorded bound must be monotone non-increasing, modulo float
// rounding of the summation itself.
func checkResidualsMonotone(t *testing.T, res []float64) {
	t.Helper()
	for i := 1; i < len(res); i++ {
		if res[i] > res[i-1]*(1+1e-9)+1e-18 {
			t.Fatalf("residual grew at round %d: %v", i, res)
		}
	}
}

// FuzzWarmStartResidual drives the incremental engine with an arbitrary
// rating sequence, interleaving warm computes, and checks after every
// compute that the recorded residual bound never increases across
// iterations — the contraction argument DESIGN.md §8 rests on. An
// exact-mode twin takes the same ratings and reads: its fixed-round cold
// passes from the teleport vector contract by (1−α) per round as well.
func FuzzWarmStartResidual(f *testing.F) {
	f.Add([]byte{0, 1, 200, 1, 2, 10, 2, 0, 220, 0, 2, 3})
	f.Add([]byte{5, 5, 255, 4, 3, 0, 3, 4, 128, 2, 1, 90, 1, 0, 200})
	f.Add([]byte{})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := New(WithEpsilon(1e-10))
		m.rebaseEvery = 5
		exact := New()
		score := func(subject core.EntityID) {
			for _, mech := range [2]*Mechanism{m, exact} {
				mech.Score(core.Query{Subject: subject, Facet: core.FacetOverall})
				checkResidualsMonotone(t, residualsSnapshot(mech))
			}
		}
		var lastSubject core.EntityID
		for i := 0; i+2 < len(data); i += 3 {
			rater := core.NewConsumerID(int(data[i]) % 8)
			subject := core.NewServiceID(int(data[i+1]) % 8)
			lastSubject = subject
			rating := 0.9
			switch data[i+2] % 3 {
			case 1:
				rating = 0.1
			case 2:
				rating = 0.5
			}
			fb := core.Feedback{
				Consumer: rater,
				Service:  subject,
				Ratings:  map[core.Facet]float64{core.FacetOverall: rating},
			}
			for _, mech := range [2]*Mechanism{m, exact} {
				if err := mech.Submit(fb); err != nil {
					t.Fatalf("submit %d: %v", i/3, err)
				}
			}
			// Every few ratings, force a compute (mixing warm propagation,
			// dense rebases via the tight rebase interval, and no-op refreshes)
			// and check the invariant on whatever work it recorded.
			if data[i+2]%4 == 0 {
				score(subject)
			}
		}
		if lastSubject != "" {
			score(lastSubject)
		}
	})
}
