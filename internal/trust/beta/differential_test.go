package beta_test

import (
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/simclock"
	"wstrust/internal/trust/beta"
	"wstrust/internal/trust/trusttest"
)

// TestDifferential checks the personalized Beta engine against cold
// rebuilds: direct/public blending and time decay both depend only on the
// feedback log and its timestamps, never on query history.
func TestDifferential(t *testing.T) {
	trusttest.Differential(t, func() core.Mechanism {
		return beta.New(beta.WithPersonalized(true))
	}, trusttest.Market(63, 12, 8, 10, 0.6))
}

// TestConcurrentSubmitScoreReset runs the shared hammer, which adds global
// queries to the existing concurrency workout; run with -race.
func TestConcurrentSubmitScoreReset(t *testing.T) {
	m := beta.New(beta.WithPersonalized(true))
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
