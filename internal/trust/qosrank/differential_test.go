package qosrank_test

import (
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/qos"
	"wstrust/internal/simclock"
	"wstrust/internal/trust/qosrank"
	"wstrust/internal/trust/trusttest"
)

func newMechanism(t *testing.T) *qosrank.Mechanism {
	t.Helper()
	m := qosrank.New()
	// Advertised claims sit near QoSMarket's per-service response-time
	// bases, so policing has real compliance checks to run — some honest,
	// some not.
	for s := 0; s < 8; s++ {
		m.RegisterAdvertised(core.NewServiceID(s), qos.Vector{
			qos.ResponseTime: 140 + 45*float64(s%5),
			qos.Cost:         2 + float64(s%4),
		})
	}
	for c := 0; c < 12; c++ {
		if err := m.SetPreferences(core.NewConsumerID(c), qos.Preferences{
			qos.ResponseTime: 2, qos.Cost: 1, qos.Accuracy: 1,
		}); err != nil {
			t.Fatalf("set preferences: %v", err)
		}
	}
	return m
}

// TestDifferential replays a monitored-QoS market: the matrix, its
// normalization and the compliance factor are all pure functions of the
// collected observations, so warm and cold must agree bit-for-bit.
func TestDifferential(t *testing.T) {
	trusttest.Differential(t, func() core.Mechanism {
		return newMechanism(t)
	}, trusttest.QoSMarket(101, 12, 8, 10, 0.6))
}

// TestConcurrentSubmitScoreReset is the shared -race workout.
func TestConcurrentSubmitScoreReset(t *testing.T) {
	m := newMechanism(t)
	trusttest.Hammer(t, m)
	if err := m.Submit(core.Feedback{
		Consumer: core.NewConsumerID(0), Service: core.NewServiceID(0),
		Observed: qos.Observation{Values: qos.Vector{qos.ResponseTime: 150}, Success: true},
		At:       simclock.Epoch,
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Score(core.Query{Subject: core.EntityID(core.NewServiceID(0)), Facet: core.FacetOverall}); !ok {
		t.Fatal("no score after post-hammer submit")
	}
}
