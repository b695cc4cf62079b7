package resource

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

func TestAmazonShrinkage(t *testing.T) {
	a := NewAmazon()
	// Population: lots of mediocre ratings on s-base establish prior ≈0.5.
	for i := 0; i < 50; i++ {
		_ = a.Submit(fb(core.NewConsumerID(i), "s-base", 0.5))
	}
	// One perfect rating on a newcomer.
	_ = a.Submit(fb("c100", "s-new", 1))
	// Many near-perfect ratings on an established service.
	for i := 0; i < 30; i++ {
		_ = a.Submit(fb(core.NewConsumerID(200+i), "s-star", 0.95))
	}
	newcomer, _ := a.Score(core.Query{Subject: "s-new"})
	star, _ := a.Score(core.Query{Subject: "s-star"})
	if newcomer.Score >= star.Score {
		t.Fatalf("one lucky rating beat 30 strong ones: %g vs %g", newcomer.Score, star.Score)
	}
	if newcomer.Confidence >= star.Confidence {
		t.Fatalf("confidence ordering wrong: %g vs %g", newcomer.Confidence, star.Confidence)
	}
}

// TestAmazonPriorWeight pins the shrinkage: a subject's ratings are
// averaged with five pseudo-ratings at the global mean.
func TestAmazonPriorWeight(t *testing.T) {
	a := NewAmazon()
	_ = a.Submit(fb("c001", "s001", 0.8))
	_ = a.Submit(fb("c002", "s001", 0.6))
	_ = a.Submit(fb("c003", "s002", 0.1))
	tv, _ := a.Score(core.Query{Subject: "s001"})
	if want := (0.8 + 0.6 + 5*0.5) / 7; math.Abs(tv.Score-want) > 1e-12 || tv.Confidence != 2.0/7 {
		t.Fatalf("s001 = %+v, want score %g confidence 2/7", tv, want)
	}
}

func TestAmazonUnknown(t *testing.T) {
	if _, ok := NewAmazon().Score(core.Query{Subject: "s-x"}); ok {
		t.Fatal("unknown subject known")
	}
}

func TestAmazonRejectsInvalid(t *testing.T) {
	if err := NewAmazon().Submit(core.Feedback{}); err == nil {
		t.Fatal("invalid feedback accepted")
	}
}

func TestEpinionsHelpfulReviewersWeighMore(t *testing.T) {
	e := NewEpinions()
	// c-good (consistently helpful) says the service is great; c-bad
	// (consistently unhelpful) says it is terrible.
	_ = e.Submit(fb("c-good", "s001", 0.9))
	_ = e.Submit(fb("c-bad", "s001", 0.1))
	for i := 0; i < 20; i++ {
		e.RateReview("c-good", true)
		e.RateReview("c-bad", false)
	}
	tv, ok := e.Score(core.Query{Subject: "s001"})
	if !ok {
		t.Fatal("unknown")
	}
	if tv.Score <= 0.6 {
		t.Fatalf("helpful reviewer did not dominate: %g", tv.Score)
	}
	// With no helpfulness votes the two reviews balance out.
	e2 := NewEpinions()
	_ = e2.Submit(fb("c-good", "s001", 0.9))
	_ = e2.Submit(fb("c-bad", "s001", 0.1))
	flat, _ := e2.Score(core.Query{Subject: "s001"})
	if math.Abs(flat.Score-0.5) > 1e-9 {
		t.Fatalf("unvoted reviews unbalanced: %g", flat.Score)
	}
}

func TestEpinionsUnknownAndReset(t *testing.T) {
	e := NewEpinions()
	if _, ok := e.Score(core.Query{Subject: "s-x"}); ok {
		t.Fatal("unknown subject known")
	}
}

func TestEpinionsRejectsInvalid(t *testing.T) {
	if err := NewEpinions().Submit(core.Feedback{}); err == nil {
		t.Fatal("invalid feedback accepted")
	}
}

func TestEpinionsConfidenceGrows(t *testing.T) {
	e := NewEpinions()
	_ = e.Submit(fb("c001", "s001", 0.8))
	one, _ := e.Score(core.Query{Subject: "s001"})
	for i := 0; i < 10; i++ {
		_ = e.Submit(fb(core.NewConsumerID(i+10), "s001", 0.8))
	}
	many, _ := e.Score(core.Query{Subject: "s001"})
	if many.Confidence <= one.Confidence {
		t.Fatalf("confidence did not grow: %g → %g", one.Confidence, many.Confidence)
	}
}
