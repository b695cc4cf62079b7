package bayesnet_test

import (
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/p2p"
	"wstrust/internal/simclock"
	"wstrust/internal/trust/bayesnet"
	"wstrust/internal/trust/trusttest"
)

// TestDifferential covers the global view only: a personalized query runs
// the live recommendation protocol and records pending recommendations —
// deliberate state, so the warm instance's interleaved queries would
// legitimately diverge from a cold rebuild. The global mean must not.
func TestDifferential(t *testing.T) {
	trusttest.Differential(t, func() core.Mechanism {
		return bayesnet.New(p2p.NewNetwork())
	}, trusttest.GlobalOnly(trusttest.Market(67, 12, 8, 10, 0.6)))
}

// TestConcurrentSubmitScoreReset hammers the mechanism — including the
// personalized path, whose network exchanges and pending-recommendation
// bookkeeping race against submits; run with -race.
func TestConcurrentSubmitScoreReset(t *testing.T) {
	m := bayesnet.New(p2p.NewNetwork())
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
