package cf

import (
	"math"
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/simclock"
)

func fb(c core.ConsumerID, s core.ServiceID, v float64) core.Feedback {
	return core.Feedback{
		Consumer: c, Service: s,
		Ratings: map[core.Facet]float64{core.FacetOverall: v}, At: simclock.Epoch,
	}
}

// twoCamps seeds a matrix with two taste camps plus a target rated
// oppositely by each camp.
func twoCamps(m *Mechanism) {
	// Camp A loves s-a, hates s-b; camp B the reverse.
	for _, c := range []core.ConsumerID{"a1", "a2", "a3"} {
		_ = m.Submit(fb(c, "s-a", 0.95))
		_ = m.Submit(fb(c, "s-b", 0.05))
	}
	for _, c := range []core.ConsumerID{"b1", "b2", "b3"} {
		_ = m.Submit(fb(c, "s-a", 0.05))
		_ = m.Submit(fb(c, "s-b", 0.95))
	}
	_ = m.Submit(fb("a2", "s-target", 0.9))
	_ = m.Submit(fb("a3", "s-target", 0.85))
	_ = m.Submit(fb("b2", "s-target", 0.15))
	_ = m.Submit(fb("b3", "s-target", 0.1))
}

func TestPersonalizedPrediction(t *testing.T) {
	for _, sim := range []Similarity{Pearson, Cosine} {
		t.Run(sim.String(), func(t *testing.T) {
			m := New(WithSimilarity(sim))
			twoCamps(m)
			forA, okA := m.Score(core.Query{Perspective: "a1", Subject: "s-target"})
			forB, okB := m.Score(core.Query{Perspective: "b1", Subject: "s-target"})
			if !okA || !okB {
				t.Fatal("prediction failed")
			}
			if forA.Score <= forB.Score {
				t.Fatalf("camps not separated: A=%g B=%g", forA.Score, forB.Score)
			}
			if forA.Score < 0.6 || forB.Score > 0.4 {
				t.Fatalf("weak separation: A=%g B=%g", forA.Score, forB.Score)
			}
		})
	}
}

func TestDirectExperienceShortCircuits(t *testing.T) {
	m := New()
	twoCamps(m)
	tv, _ := m.Score(core.Query{Perspective: "a2", Subject: "s-target"})
	if tv.Score != 0.9 {
		t.Fatalf("direct rating not returned: %g", tv.Score)
	}
}

func TestGlobalFallbackItemMean(t *testing.T) {
	m := New()
	twoCamps(m)
	// No perspective → item mean (≈0.5 for the polarized target).
	tv, ok := m.Score(core.Query{Subject: "s-target"})
	if !ok {
		t.Fatal("item mean unavailable")
	}
	if math.Abs(tv.Score-0.5) > 0.1 {
		t.Fatalf("item mean = %g, want ≈0.5", tv.Score)
	}
	// Unknown consumer → same fallback.
	tv2, _ := m.Score(core.Query{Perspective: "stranger", Subject: "s-target"})
	if tv2 != tv {
		t.Fatalf("stranger fallback %+v != global %+v", tv2, tv)
	}
}

func TestUnknownItem(t *testing.T) {
	m := New()
	twoCamps(m)
	if _, ok := m.Score(core.Query{Subject: "s-none"}); ok {
		t.Fatal("unknown item known")
	}
}

func TestSimilarityBetween(t *testing.T) {
	m := New()
	twoCamps(m)
	same, ok := m.SimilarityBetween("a1", "a2")
	if !ok {
		t.Fatal("no similarity for overlapping raters")
	}
	opp, _ := m.SimilarityBetween("a1", "b1")
	if same <= 0 || opp >= 0 {
		t.Fatalf("pearson camps: same=%g opp=%g", same, opp)
	}
	if _, ok := m.SimilarityBetween("a1", "stranger"); ok {
		t.Fatal("similarity with unknown rater")
	}
}

func TestCosineSimilarityNonNegativeRatings(t *testing.T) {
	m := New(WithSimilarity(Cosine))
	twoCamps(m)
	same, ok := m.SimilarityBetween("a1", "a2")
	if !ok || same < 0.9 {
		t.Fatalf("cosine same-camp similarity = %g ok=%v", same, ok)
	}
}

func TestMinOverlapGuard(t *testing.T) {
	m := New()
	// x and y share one item, below the two-item minimum.
	_ = m.Submit(fb("x", "s1", 0.9))
	_ = m.Submit(fb("x", "s2", 0.2))
	_ = m.Submit(fb("y", "s1", 0.8))
	_ = m.Submit(fb("y", "s3", 0.1))
	if _, ok := m.SimilarityBetween("x", "y"); ok {
		t.Fatal("similarity computed below overlap minimum")
	}
	_ = m.Submit(fb("y", "s2", 0.3))
	if _, ok := m.SimilarityBetween("x", "y"); !ok {
		t.Fatal("no similarity at the overlap minimum")
	}
}

func TestPredictionClamped(t *testing.T) {
	m := New()
	// Neighbour with extreme deviation would push prediction above 1.
	_ = m.Submit(fb("me", "s-x", 1))
	_ = m.Submit(fb("me", "s-y", 1))
	_ = m.Submit(fb("nb", "s-x", 1))
	_ = m.Submit(fb("nb", "s-y", 0.9))
	_ = m.Submit(fb("nb", "s-target", 1))
	tv, ok := m.Score(core.Query{Perspective: "me", Subject: "s-target"})
	if ok && (tv.Score < 0 || tv.Score > 1) {
		t.Fatalf("prediction out of range: %g", tv.Score)
	}
}

// TestNeighborsCap: only the k = 10 most similar raters vote. Ten raters
// who agree with the perspective exactly and two who agree only loosely
// all rate the target; the loose two sort first by ID, so the column walk
// meets them first and must evict them, leaving the prediction of the ten
// alone.
func TestNeighborsCap(t *testing.T) {
	seed := func(m *Mechanism, loose bool) {
		_ = m.Submit(fb("me", "s1", 0.9))
		_ = m.Submit(fb("me", "s2", 0.1))
		_ = m.Submit(fb("me", "s3", 0.5))
		if loose {
			for _, c := range []core.ConsumerID{"a-loose1", "a-loose2"} {
				_ = m.Submit(fb(c, "s1", 0.8))
				_ = m.Submit(fb(c, "s2", 0.3))
				_ = m.Submit(fb(c, "s3", 0.2))
				_ = m.Submit(fb(c, "s-target", 0.05))
			}
		}
		for i := 0; i < 10; i++ {
			c := core.NewConsumerID(i)
			_ = m.Submit(fb(c, "s1", 0.9))
			_ = m.Submit(fb(c, "s2", 0.1))
			_ = m.Submit(fb(c, "s3", 0.5))
			_ = m.Submit(fb(c, "s-target", 0.8))
		}
	}
	ten, capped := New(), New()
	seed(ten, false)
	seed(capped, true)
	if s, ok := capped.SimilarityBetween("me", "a-loose1"); !ok || s <= 0 {
		t.Fatalf("loose rater similarity = %g ok=%v, want a positive candidate", s, ok)
	}
	q := core.Query{Perspective: "me", Subject: "s-target"}
	want, _ := ten.Score(q)
	got, ok := capped.Score(q)
	if !ok || got != want {
		t.Fatalf("12 candidates predicted %+v, want the 10 closest alone: %+v", got, want)
	}
}

func TestRejectsInvalidAndReset(t *testing.T) {
	m := New()
	if err := m.Submit(core.Feedback{}); err == nil {
		t.Fatal("invalid feedback accepted")
	}
}

func TestNameReflectsSimilarity(t *testing.T) {
	if New(WithSimilarity(Cosine)).Name() != "cf-cosine" {
		t.Fatal("name wrong")
	}
	if New().Name() != "cf-pearson" {
		t.Fatal("default name wrong")
	}
}
