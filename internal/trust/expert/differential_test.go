package expert_test

import (
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/qos"
	"wstrust/internal/simclock"
	"wstrust/internal/trust/expert"
	"wstrust/internal/trust/trusttest"
)

func newRules(t *testing.T) *expert.Rules {
	t.Helper()
	// Thresholds sit inside QoSMarket's response-time range (120–360 ms)
	// so different services trip different rules.
	m, err := expert.NewRules([]expert.Rule{
		{Name: "fast", Conditions: []expert.Condition{
			{Metric: qos.ResponseTime, Op: expert.LessThan, Value: 200},
		}, Verdict: 0.9, Weight: 2},
		{Name: "slow", Conditions: []expert.Condition{
			{Metric: qos.ResponseTime, Op: expert.GreaterThan, Value: 280},
		}, Verdict: 0.2, Weight: 1},
		{Name: "flaky", Conditions: []expert.Condition{
			{Metric: qos.Availability, Op: expert.LessThan, Value: 0.8},
		}, Verdict: 0.1, Weight: 2},
	})
	if err != nil {
		t.Fatalf("new rules: %v", err)
	}
	return m
}

// TestRulesDifferential replays a monitored-QoS market: rule firing is a
// pure function of the evidence means, so warm and cold must agree
// bit-for-bit.
func TestRulesDifferential(t *testing.T) {
	trusttest.Differential(t, func() core.Mechanism {
		return newRules(t)
	}, trusttest.QoSMarket(79, 12, 8, 10, 0.6))
}

// TestBayesDifferential does the same for the naive Bayes classifier,
// whose training counts and posterior are likewise replay-pure.
func TestBayesDifferential(t *testing.T) {
	trusttest.Differential(t, func() core.Mechanism {
		return expert.NewBayes()
	}, trusttest.QoSMarket(83, 12, 8, 10, 0.6))
}

// TestRulesConcurrent is the shared -race workout for the rule engine.
func TestRulesConcurrent(t *testing.T) {
	m := newRules(t)
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

// TestBayesConcurrent is the same workout for the classifier.
func TestBayesConcurrent(t *testing.T) {
	m := expert.NewBayes()
	trusttest.Hammer(t, m)
	if err := m.Submit(core.Feedback{
		Consumer: core.NewConsumerID(0), Service: core.NewServiceID(0),
		Ratings: map[core.Facet]float64{core.FacetOverall: 1, qos.Accuracy: 0.9},
		At:      simclock.Epoch,
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Score(core.Query{Subject: core.EntityID(core.NewServiceID(0)), Facet: core.FacetOverall}); !ok {
		t.Fatal("no score after post-hammer submit")
	}
}
