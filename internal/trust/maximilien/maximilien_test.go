package maximilien

import (
	"math"
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/qos"
	"wstrust/internal/simclock"
)

func fb(c core.ConsumerID, s core.ServiceID, ratings map[core.Facet]float64) core.Feedback {
	return core.Feedback{Consumer: c, Service: s, Ratings: ratings, At: simclock.Epoch}
}

func seed(t *testing.T, m *Mechanism) {
	t.Helper()
	// s-fast: quick but inaccurate. s-sharp: slow but accurate.
	for i := 0; i < 10; i++ {
		if err := m.Submit(fb("c001", "s-fast", map[core.Facet]float64{
			qos.ResponseTime: 0.95, qos.Accuracy: 0.3,
		})); err != nil {
			t.Fatal(err)
		}
		if err := m.Submit(fb("c001", "s-sharp", map[core.Facet]float64{
			qos.ResponseTime: 0.3, qos.Accuracy: 0.95,
		})); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPolicyValidation(t *testing.T) {
	ok := Policy{Weights: qos.Preferences{qos.Accuracy: 1}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	badFacet := Policy{Weights: qos.Preferences{"made-up-facet": 1}}
	if err := badFacet.Validate(); err == nil {
		t.Fatal("unknown ontology facet accepted")
	}
	badMin := Policy{Minimums: map[core.Facet]float64{qos.Accuracy: 2}}
	if err := badMin.Validate(); err == nil {
		t.Fatal("out-of-range minimum accepted")
	}
	overall := Policy{Weights: qos.Preferences{core.FacetOverall: 1}}
	if err := overall.Validate(); err != nil {
		t.Fatalf("overall facet rejected: %v", err)
	}
}

func TestPolicyWeightsDriveRanking(t *testing.T) {
	m := New()
	seed(t, m)
	if err := m.SetPolicy("c-speed", Policy{Weights: qos.Preferences{qos.ResponseTime: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetPolicy("c-precise", Policy{Weights: qos.Preferences{qos.Accuracy: 1}}); err != nil {
		t.Fatal(err)
	}
	q := func(c core.ConsumerID, s core.ServiceID) float64 {
		tv, ok := m.Score(core.Query{Perspective: c, Subject: s, Facet: core.FacetOverall})
		if !ok {
			t.Fatalf("unknown %s for %s", s, c)
		}
		return tv.Score
	}
	if q("c-speed", "s-fast") <= q("c-speed", "s-sharp") {
		t.Fatal("speed policy ranking wrong")
	}
	if q("c-precise", "s-sharp") <= q("c-precise", "s-fast") {
		t.Fatal("accuracy policy ranking wrong")
	}
}

func TestHardMinimumDisqualifies(t *testing.T) {
	m := New()
	seed(t, m)
	if err := m.SetPolicy("c-strict", Policy{
		Weights:  qos.Preferences{qos.ResponseTime: 1},
		Minimums: map[core.Facet]float64{qos.Accuracy: 0.5},
	}); err != nil {
		t.Fatal(err)
	}
	tv, ok := m.Score(core.Query{Perspective: "c-strict", Subject: "s-fast", Facet: core.FacetOverall})
	if !ok {
		t.Fatal("unknown")
	}
	if tv.Score != 0 {
		t.Fatalf("accuracy floor not enforced: %g", tv.Score)
	}
	// s-sharp passes the floor despite weak response time.
	tv2, _ := m.Score(core.Query{Perspective: "c-strict", Subject: "s-sharp", Facet: core.FacetOverall})
	if tv2.Score <= 0 {
		t.Fatalf("qualified service zeroed: %g", tv2.Score)
	}
}

func TestFacetQueries(t *testing.T) {
	m := New()
	seed(t, m)
	acc, ok := m.Score(core.Query{Subject: "s-sharp", Facet: qos.Accuracy})
	if !ok || math.Abs(acc.Score-0.95) > 1e-9 {
		t.Fatalf("facet query = %+v ok=%v", acc, ok)
	}
	if _, ok := m.Score(core.Query{Subject: "s-sharp", Facet: qos.Encryption}); ok {
		t.Fatal("unrated facet reported known")
	}
}

func TestNoPolicyPlainMean(t *testing.T) {
	m := New()
	seed(t, m)
	tv, ok := m.Score(core.Query{Subject: "s-fast", Facet: core.FacetOverall})
	if !ok {
		t.Fatal("unknown")
	}
	// Overall derives from the facet mean (0.95+0.3)/2 = 0.625.
	if math.Abs(tv.Score-0.625) > 1e-9 {
		t.Fatalf("plain mean = %g, want 0.625", tv.Score)
	}
}

func TestUnknownInvalidReset(t *testing.T) {
	m := New()
	if _, ok := m.Score(core.Query{Subject: "s-x"}); ok {
		t.Fatal("unknown subject known")
	}
	if err := m.Submit(core.Feedback{}); err == nil {
		t.Fatal("invalid feedback accepted")
	}
	seed(t, m)
	_ = m.SetPolicy("c-speed", Policy{Weights: qos.Preferences{qos.ResponseTime: 1}})
	tv, _ := m.Score(core.Query{Perspective: "c-speed", Subject: "s-fast", Facet: core.FacetOverall})
	if tv.Score <= 0.5 {
		t.Fatalf("policy not applied: %g", tv.Score)
	}
}
