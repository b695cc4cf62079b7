package qosrank

import (
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/qos"
	"wstrust/internal/simclock"
)

func obsFeedback(c core.ConsumerID, s core.ServiceID, values qos.Vector, success bool) core.Feedback {
	return core.Feedback{
		Consumer: c, Service: s,
		Observed: qos.Observation{Values: values, At: simclock.Epoch, Success: success},
		At:       simclock.Epoch,
	}
}

func seedTwoServices(t *testing.T, m *Mechanism) {
	t.Helper()
	// s-fast: 100ms; s-slow: 400ms. Both always up.
	for i := 0; i < 10; i++ {
		if err := m.Submit(obsFeedback("c001", "s-fast", qos.Vector{qos.ResponseTime: 100}, true)); err != nil {
			t.Fatal(err)
		}
		if err := m.Submit(obsFeedback("c001", "s-slow", qos.Vector{qos.ResponseTime: 400}, true)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRanksByMeasuredQoS(t *testing.T) {
	m := New()
	seedTwoServices(t, m)
	fast, ok := m.Score(core.Query{Subject: "s-fast"})
	if !ok {
		t.Fatal("unknown")
	}
	slow, _ := m.Score(core.Query{Subject: "s-slow"})
	if fast.Score <= slow.Score {
		t.Fatalf("fast %g not above slow %g", fast.Score, slow.Score)
	}
}

func TestPreferencesChangeRanking(t *testing.T) {
	m := New()
	// s-cheap: slow but cheap. s-fast: fast but expensive.
	for i := 0; i < 10; i++ {
		_ = m.Submit(obsFeedback("c001", "s-cheap", qos.Vector{qos.ResponseTime: 400, qos.Cost: 1}, true))
		_ = m.Submit(obsFeedback("c001", "s-fast", qos.Vector{qos.ResponseTime: 100, qos.Cost: 10}, true))
	}
	if err := m.SetPreferences("c-speed", qos.Preferences{qos.ResponseTime: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetPreferences("c-thrift", qos.Preferences{qos.Cost: 1}); err != nil {
		t.Fatal(err)
	}
	speedFast, _ := m.Score(core.Query{Perspective: "c-speed", Subject: "s-fast"})
	speedCheap, _ := m.Score(core.Query{Perspective: "c-speed", Subject: "s-cheap"})
	thriftFast, _ := m.Score(core.Query{Perspective: "c-thrift", Subject: "s-fast"})
	thriftCheap, _ := m.Score(core.Query{Perspective: "c-thrift", Subject: "s-cheap"})
	if speedFast.Score <= speedCheap.Score {
		t.Fatalf("speed-lover ranking wrong: fast=%g cheap=%g", speedFast.Score, speedCheap.Score)
	}
	if thriftCheap.Score <= thriftFast.Score {
		t.Fatalf("thrift ranking wrong: fast=%g cheap=%g", thriftFast.Score, thriftCheap.Score)
	}
}

func TestPolicingPunishesFalseClaims(t *testing.T) {
	m := New()
	seedTwoServices(t, m)
	// s-slow claimed 100ms but delivers 400ms.
	m.RegisterAdvertised("s-slow", qos.Vector{qos.ResponseTime: 100})
	comp, ok := m.Compliance("s-slow")
	if !ok {
		t.Fatal("no compliance verdict")
	}
	if comp != 0 {
		t.Fatalf("compliance = %g, want 0", comp)
	}
	// An honest advertiser keeps compliance 1.
	m.RegisterAdvertised("s-fast", qos.Vector{qos.ResponseTime: 105})
	comp2, _ := m.Compliance("s-fast")
	if comp2 != 1 {
		t.Fatalf("honest compliance = %g, want 1", comp2)
	}
	// Policing zeroes the liar's score.
	slow, _ := m.Score(core.Query{Subject: "s-slow"})
	if slow.Score != 0 {
		t.Fatalf("liar score = %g, want 0 under policing", slow.Score)
	}
	// Before it advertises anything the same service keeps its
	// measured-QoS score: only the false claim costs it.
	m2 := New()
	seedTwoServices(t, m2)
	slow2, _ := m2.Score(core.Query{Subject: "s-slow"})
	if slow2.Score <= 0 {
		t.Fatalf("score without a claim = %g", slow2.Score)
	}
}

func TestFailuresLowerAvailabilityColumn(t *testing.T) {
	m := New()
	for i := 0; i < 10; i++ {
		_ = m.Submit(obsFeedback("c001", "s-up", qos.Vector{qos.ResponseTime: 100}, true))
	}
	for i := 0; i < 10; i++ {
		success := i%2 == 0
		var v qos.Vector
		if success {
			v = qos.Vector{qos.ResponseTime: 100}
		}
		_ = m.Submit(obsFeedback("c001", "s-flaky", v, success))
	}
	up, _ := m.Score(core.Query{Subject: "s-up"})
	flaky, _ := m.Score(core.Query{Subject: "s-flaky"})
	if up.Score <= flaky.Score {
		t.Fatalf("availability ignored: up=%g flaky=%g", up.Score, flaky.Score)
	}
}

func TestSubjectiveFacetsJoinMatrix(t *testing.T) {
	m := New()
	mk := func(s core.ServiceID, acc float64) core.Feedback {
		fb := obsFeedback("c001", s, qos.Vector{qos.ResponseTime: 100}, true)
		fb.Ratings = map[core.Facet]float64{qos.Accuracy: acc}
		return fb
	}
	for i := 0; i < 10; i++ {
		_ = m.Submit(mk("s-sharp", 0.95))
		_ = m.Submit(mk("s-dull", 0.2))
	}
	sharp, _ := m.Score(core.Query{Subject: "s-sharp"})
	dull, _ := m.Score(core.Query{Subject: "s-dull"})
	if sharp.Score <= dull.Score {
		t.Fatalf("accuracy facet ignored: %g vs %g", sharp.Score, dull.Score)
	}
}

func TestUnknownAndInvalid(t *testing.T) {
	m := New()
	if _, ok := m.Score(core.Query{Subject: "s-x"}); ok {
		t.Fatal("unknown subject known")
	}
	if err := m.Submit(core.Feedback{}); err == nil {
		t.Fatal("invalid feedback accepted")
	}
	if err := m.SetPreferences("c", qos.Preferences{qos.Cost: -1}); err == nil {
		t.Fatal("invalid preferences accepted")
	}
}
