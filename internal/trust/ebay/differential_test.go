package ebay_test

import (
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/simclock"
	"wstrust/internal/trust/ebay"
	"wstrust/internal/trust/trusttest"
)

// TestDifferential replays a market into one long-lived instance and
// proves every score stays bit-identical to a cold rebuild from the same
// feedback prefix — the tallies hold no order dependence a
// replay could expose.
func TestDifferential(t *testing.T) {
	trusttest.Differential(t, func() core.Mechanism {
		return ebay.New()
	}, trusttest.Market(61, 12, 8, 10, 0.6))
}

// TestConcurrentSubmitScoreReset is the shared -race workout plus a
// post-hammer sanity check that the mechanism still answers.
func TestConcurrentSubmitScoreReset(t *testing.T) {
	m := ebay.New()
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
