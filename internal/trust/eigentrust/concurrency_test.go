package eigentrust_test

import (
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/simclock"
	"wstrust/internal/trust/eigentrust"
	"wstrust/internal/trust/trusttest"
)

// TestConcurrentSubmitScoreReset hammers exact mode's kept trust vector
// from many goroutines, including Tick; run with -race.
func TestConcurrentSubmitScoreReset(t *testing.T) {
	m := eigentrust.New()
	trusttest.Hammer(t, m)
	if err := m.Submit(core.Feedback{
		Consumer: core.NewConsumerID(0), Service: core.NewServiceID(0),
		Ratings: map[core.Facet]float64{core.FacetOverall: 0.9},
		At:      simclock.Epoch,
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Score(core.Query{Subject: core.EntityID(core.NewServiceID(0)), Facet: core.FacetOverall}); !ok {
		t.Fatal("post-hammer score unanswered")
	}
}
