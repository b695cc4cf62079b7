package subjective_test

import (
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/simclock"
	"wstrust/internal/trust/subjective"
	"wstrust/internal/trust/trusttest"
)

// TestDifferential replays a market through the opinion mechanism: scores
// are pure folds over the evidence log (consensus over sorted raters,
// discounting through agreement-derived advisor trust), so warm and cold
// instances must agree bit-for-bit.
func TestDifferential(t *testing.T) {
	trusttest.Differential(t, func() core.Mechanism {
		return subjective.NewMechanism()
	}, trusttest.Market(97, 12, 8, 10, 0.6))
}

// TestConcurrentSubmitScoreReset is the shared -race workout.
func TestConcurrentSubmitScoreReset(t *testing.T) {
	m := subjective.NewMechanism()
	trusttest.Hammer(t, m)
	if err := m.Submit(core.Feedback{
		Consumer: core.NewConsumerID(0), Service: core.NewServiceID(0),
		Ratings: map[core.Facet]float64{core.FacetOverall: 1},
		At:      simclock.Epoch,
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Score(core.Query{Subject: core.EntityID(core.NewServiceID(0)), Facet: core.FacetOverall}); !ok {
		t.Fatal("no score after post-hammer submit")
	}
}

// TestMechanismTransitivity pins the mechanism's referral semantics: a
// perspective with no direct experience still gets an answer through
// other raters' discounted opinions, and a rater whose history agrees
// with the perspective pulls the answer toward its own verdict.
func TestMechanismTransitivity(t *testing.T) {
	m := subjective.NewMechanism()
	alice, bob := core.NewConsumerID(0), core.NewConsumerID(1)
	shared, target := core.NewServiceID(0), core.NewServiceID(1)
	// Alice and Bob agree about a shared service; only Bob knows target.
	for i := 0; i < 5; i++ {
		for _, c := range []core.ConsumerID{alice, bob} {
			if err := m.Submit(core.Feedback{
				Consumer: c, Service: shared,
				Ratings: map[core.Facet]float64{core.FacetOverall: 0.9},
				At:      simclock.Epoch,
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Submit(core.Feedback{
			Consumer: bob, Service: target,
			Ratings: map[core.Facet]float64{core.FacetOverall: 0.95},
			At:      simclock.Epoch,
		}); err != nil {
			t.Fatal(err)
		}
	}
	tv, ok := m.Score(core.Query{
		Perspective: alice, Subject: core.EntityID(target), Facet: core.FacetOverall,
	})
	if !ok {
		t.Fatal("referral gave no answer")
	}
	if tv.Score <= 0.5 {
		t.Fatalf("trusted referral should lift the score above neutral, got %+v", tv)
	}
	if tv.Confidence <= 0 || tv.Confidence >= 1 {
		t.Fatalf("referral confidence should be partial, got %+v", tv)
	}
	// A stranger perspective with no overlap gets a vacuous discount: the
	// answer exists but stays maximally uncertain relative to Bob's own.
	stranger, _ := m.Score(core.Query{
		Perspective: core.NewConsumerID(9), Subject: core.EntityID(target), Facet: core.FacetOverall,
	})
	direct, _ := m.Score(core.Query{
		Perspective: bob, Subject: core.EntityID(target), Facet: core.FacetOverall,
	})
	if stranger.Confidence >= direct.Confidence {
		t.Fatalf("stranger confidence %g should trail direct confidence %g",
			stranger.Confidence, direct.Confidence)
	}
}
