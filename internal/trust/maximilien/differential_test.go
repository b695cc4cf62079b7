package maximilien_test

import (
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/qos"
	"wstrust/internal/simclock"
	"wstrust/internal/trust/maximilien"
	"wstrust/internal/trust/trusttest"
)

func newMechanism(t *testing.T) *maximilien.Mechanism {
	t.Helper()
	m := maximilien.New()
	// Policies make the personalized path live: perspective queries then
	// run minimum checks and weighted aggregation, not the plain mean.
	for c := 0; c < 12; c++ {
		if err := m.SetPolicy(core.NewConsumerID(c), maximilien.Policy{
			Weights:  qos.Preferences{qos.Accuracy: 2, qos.Availability: 1},
			Minimums: map[core.Facet]float64{qos.Accuracy: 0.05},
		}); err != nil {
			t.Fatalf("set policy: %v", err)
		}
	}
	return m
}

// TestDifferential replays a monitored-QoS market so the accuracy facet
// carries real ratings; agency tallies must replay bit-for-bit.
func TestDifferential(t *testing.T) {
	trusttest.Differential(t, func() core.Mechanism {
		return newMechanism(t)
	}, trusttest.QoSMarket(73, 12, 8, 10, 0.6))
}

// TestConcurrentSubmitScoreReset is the shared -race workout.
func TestConcurrentSubmitScoreReset(t *testing.T) {
	m := newMechanism(t)
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
