package cf_test

import (
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/simclock"
	"wstrust/internal/trust/cf"
	"wstrust/internal/trust/trusttest"
)

// TestConcurrentSubmitScoreReset hammers the cached mechanism from many
// goroutines; run with -race.
func TestConcurrentSubmitScoreReset(t *testing.T) {
	m := cf.New()
	trusttest.Hammer(t, m)
	// The hammer rates s000..s006, so s007's score reads only these.
	fresh := core.NewServiceID(7)
	for c := 0; c < 3; c++ {
		if err := m.Submit(core.Feedback{
			Consumer: core.NewConsumerID(c), Service: fresh,
			Ratings: map[core.Facet]float64{core.FacetOverall: 0.8},
			At:      simclock.Epoch,
		}); err != nil {
			t.Fatal(err)
		}
	}
	tv, ok := m.Score(core.Query{Subject: core.EntityID(fresh), Facet: core.FacetOverall})
	if !ok || tv.Score <= 0.5 {
		t.Fatalf("post-hammer score = %+v ok=%v", tv, ok)
	}
}
