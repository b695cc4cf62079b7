package eigentrust

import (
	"fmt"
	"math/rand"
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/simclock"
)

// BenchmarkTick measures exact mode's per-round recompute at experiment
// scale (the per-round cost of the batch-global mechanisms): every Tick
// reruns the fixed-round power iteration from the teleport vector over a
// CSR snapshot of the basis's rows.
func BenchmarkTick(b *testing.B) {
	m := New()
	rng := simclock.NewRand(1)
	for i := 0; i < 2000; i++ {
		_ = m.Submit(core.Feedback{
			Consumer: core.NewConsumerID(rng.Intn(50)),
			Service:  core.NewServiceID(rng.Intn(30)),
			Ratings:  map[core.Facet]float64{core.FacetOverall: rng.Float64()},
			At:       simclock.Epoch,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Tick(simclock.Epoch)
	}
}

// benchPops is the PR 8 population sweep: the incremental per-update cost
// must stay flat across it while the cold recompute grows with n.
var benchPops = []int{1_000, 10_000, 100_000}

// populateBench seeds a pop-peer market (pop/2 consumers × pop/2
// services, 2 ratings per consumer) deterministically. Consumer c always
// rates service c, so every service is on the roster before the measured
// loop — the benchmark then exercises the steady state (updates to known
// peers), not roster growth, which by design forces dense rebases.
func populateBench(b testing.TB, m *Mechanism, pop int) {
	b.Helper()
	rng := simclock.NewRand(int64(pop))
	half := pop / 2
	for c := 0; c < half; c++ {
		for _, svc := range [2]int{c, rng.Intn(half)} {
			rating := 0.9
			if rng.Float64() < 0.3 {
				rating = 0.1
			}
			err := m.Submit(core.Feedback{
				Consumer: core.NewConsumerID(c),
				Service:  core.NewServiceID(svc),
				Ratings:  map[core.Facet]float64{core.FacetOverall: rating},
				At:       simclock.Epoch,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// oneUpdateScore submits one fresh rating and reads a score back — the
// streaming API's steady-state unit of work (wsxd: POST /local-trust
// followed by GET /compute-with-stats).
func oneUpdateScore(b testing.TB, m *Mechanism, rng *rand.Rand, half int) {
	b.Helper()
	svc := core.NewServiceID(rng.Intn(half))
	err := m.Submit(core.Feedback{
		Consumer: core.NewConsumerID(rng.Intn(half)),
		Service:  svc,
		Ratings:  map[core.Facet]float64{core.FacetOverall: 0.9},
		At:       simclock.Epoch,
	})
	if err != nil {
		b.Fatal(err)
	}
	m.Score(core.Query{Subject: svc, Facet: core.FacetOverall})
}

// BenchmarkIncrementalSubmitScore measures the warm-start path per update:
// one rating folded into the pending delta, then a Score that propagates
// it sparsely from the previous fixpoint. The per-op cost is O(affected
// rows), so it must stay within the same order across the whole sweep.
func BenchmarkIncrementalSubmitScore(b *testing.B) {
	for _, pop := range benchPops {
		if testing.Short() && pop > 10_000 {
			continue
		}
		b.Run(fmt.Sprintf("pop=%d", pop), func(b *testing.B) {
			m := New(WithEpsilon(1e-9))
			populateBench(b, m, pop)
			m.Tick(simclock.Epoch) // establish the warm basis (one dense pass)
			rng := simclock.NewRand(int64(pop) + 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				oneUpdateScore(b, m, rng, pop/2)
			}
		})
	}
}

// BenchmarkColdSubmitScore is the baseline the warm-start path is judged
// against: exact mode recomputes the full power iteration from the
// teleport vector on every update-then-score cycle. The pass walks a CSR
// snapshot of the rows it rebuilds into reused buffers, so its time is
// O(edges × iterations) and its allocations do not grow with the
// population (TestColdRecomputeAllocs bounds them).
func BenchmarkColdSubmitScore(b *testing.B) {
	for _, pop := range benchPops {
		if testing.Short() && pop > 10_000 {
			continue
		}
		b.Run(fmt.Sprintf("pop=%d", pop), func(b *testing.B) {
			m := New() // exact mode: epoch bump invalidates the whole vector
			populateBench(b, m, pop)
			m.Score(core.Query{Subject: core.NewServiceID(0), Facet: core.FacetOverall})
			rng := simclock.NewRand(int64(pop) + 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				oneUpdateScore(b, m, rng, pop/2)
			}
		})
	}
}

// TestColdRecomputeAllocs guards exact mode's O(edges) recompute: one
// Submit+Score at pop=10000 reruns the whole power iteration, and must do
// it in the basis's reused buffers rather than allocating a row per peer.
func TestColdRecomputeAllocs(t *testing.T) {
	const pop, maxAllocs = 10_000, 16
	m := New()
	populateBench(t, m, pop)
	m.Score(core.Query{Subject: core.NewServiceID(0), Facet: core.FacetOverall})
	rng := simclock.NewRand(pop + 1)
	allocs := testing.AllocsPerRun(5, func() { oneUpdateScore(t, m, rng, pop/2) })
	if st := m.LastConvergence(); st.WarmStart || st.Iterations != iters {
		t.Fatalf("want a cold %d-round pass per update, got %+v", iters, st)
	}
	if allocs > maxAllocs {
		t.Errorf("cold Submit+Score at pop=%d: %.0f allocs, want at most %d", pop, allocs, maxAllocs)
	}
}
