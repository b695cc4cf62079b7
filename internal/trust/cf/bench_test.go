package cf

import (
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/simclock"
)

// benchMatrix fills a mechanism with an experiment-scale rating matrix
// (60 consumers × 30 services, ~40% dense) — the shape of the C4/F4
// markets where cf is the suite's critical path.
func benchMatrix(tb testing.TB, m *Mechanism) {
	tb.Helper()
	rng := simclock.NewRand(1)
	for c := 0; c < 60; c++ {
		for s := 0; s < 30; s++ {
			if rng.Float64() < 0.4 {
				if err := m.Submit(core.Feedback{
					Consumer: core.NewConsumerID(c), Service: core.NewServiceID(s),
					Ratings: map[core.Facet]float64{core.FacetOverall: rng.Float64()},
					At:      simclock.Epoch,
				}); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
}

// steadyQuery returns a personalized query for a service the perspective
// has NOT rated, so Score runs the full neighborhood prediction rather
// than the direct-experience short-circuit (whose confidence, 0.9, no
// prediction from at most 10 neighbors reaches).
func steadyQuery(tb testing.TB, m *Mechanism) core.Query {
	tb.Helper()
	for s := 0; s < 30; s++ {
		q := core.Query{Perspective: core.NewConsumerID(1), Subject: core.NewServiceID(s), Facet: core.FacetOverall}
		if tv, ok := m.Score(q); ok && tv.Confidence != 0.9 {
			return q
		}
	}
	tb.Fatal("benchmark matrix left no unrated service for the perspective")
	return core.Query{}
}

// TestScoreAllocs holds the steady paths to zero allocations: a
// personalized Score with every slot warm, a global item-mean Score, and a
// re-rating Submit (alternating two prebuilt values, so every call
// changes the cell).
func TestScoreAllocs(t *testing.T) {
	m := New()
	benchMatrix(t, m)
	personal := steadyQuery(t, m)
	global := core.Query{Subject: core.NewServiceID(3), Facet: core.FacetOverall}
	var rerate [2]core.Feedback
	for i := range rerate {
		rerate[i] = core.Feedback{
			Consumer: core.NewConsumerID(59), Service: core.NewServiceID(0),
			Ratings: map[core.Facet]float64{core.FacetOverall: 0.25 * float64(i+1)},
			At:      simclock.Epoch,
		}
	}
	n := 0
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"personalized Score", func() { m.Score(personal) }},
		{"item-mean Score", func() { m.Score(global) }},
		{"re-rating Submit", func() {
			if err := m.Submit(rerate[n%2]); err != nil {
				t.Fatal(err)
			}
			n++
		}},
	} {
		if allocs := testing.AllocsPerRun(100, c.f); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, allocs)
		}
	}
}

// benchScore measures the steady-state (no-new-ratings) prediction path:
// the matrix is frozen and the same unconsumed service is predicted
// repeatedly, as selection loops do when ranking a quiet market. This is
// the headline number for the stamped similarity and mean slots.
func benchScore(b *testing.B, sim Similarity) {
	b.Helper()
	m := New(WithSimilarity(sim))
	benchMatrix(b, m)
	q := steadyQuery(b, m)
	if _, ok := m.Score(q); !ok {
		b.Fatal("steady-state query unanswered")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = m.Score(q)
	}
}

func BenchmarkScorePearson(b *testing.B) { benchScore(b, Pearson) }

func BenchmarkScoreCosine(b *testing.B) { benchScore(b, Cosine) }

// BenchmarkScoreSelectionSweep models one experiment round from one
// consumer's viewpoint: score every service in the market, then another
// consumer submits a rating (invalidating that rater's cached
// similarities while the rest of the cache survives).
func BenchmarkScoreSelectionSweep(b *testing.B) {
	m := New()
	benchMatrix(b, m)
	perspective := core.NewConsumerID(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < 30; s++ {
			_, _ = m.Score(core.Query{
				Perspective: perspective,
				Subject:     core.EntityID(core.NewServiceID(s)),
				Facet:       core.FacetOverall,
			})
		}
		if err := m.Submit(core.Feedback{
			Consumer: core.NewConsumerID(2 + i%58), Service: core.NewServiceID(i % 30),
			Ratings: map[core.Facet]float64{core.FacetOverall: float64(i%10) / 10},
			At:      simclock.Epoch,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkItemMean measures the global (no-perspective) fallback.
func BenchmarkItemMean(b *testing.B) {
	m := New()
	benchMatrix(b, m)
	q := core.Query{Subject: core.EntityID(core.NewServiceID(3)), Facet: core.FacetOverall}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Score(q); !ok {
			b.Fatal("item mean unanswered")
		}
	}
}

// BenchmarkSubmit measures feedback ingestion: the row and column
// updates and the version bumps that invalidate the cached means and
// similarities. The 660 feedbacks are built before the timer; they cycle
// through 60 cells (consumer i%60, service i%30), and each visit to a cell
// brings a new value ((i/60)%11 tenths), so no call is an identical
// overwrite that returns early.
func BenchmarkSubmit(b *testing.B) {
	m := New()
	benchMatrix(b, m)
	fbs := make([]core.Feedback, 660)
	for i := range fbs {
		fbs[i] = core.Feedback{
			Consumer: core.NewConsumerID(i % 60), Service: core.NewServiceID(i % 30),
			Ratings: map[core.Facet]float64{core.FacetOverall: float64((i/60)%11) / 10},
			At:      simclock.Epoch,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Submit(fbs[i%len(fbs)]); err != nil {
			b.Fatal(err)
		}
	}
}
