package expert

import (
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/qos"
	"wstrust/internal/simclock"
)

func measured(s core.ServiceID, rt float64) core.Feedback {
	return core.Feedback{
		Consumer: "c001", Service: s,
		Observed: qos.Observation{Values: qos.Vector{qos.ResponseTime: rt}, Success: true, At: simclock.Epoch},
		At:       simclock.Epoch,
	}
}

func rated(s core.ServiceID, acc, overall float64) core.Feedback {
	return core.Feedback{
		Consumer: "c001", Service: s,
		Observed: qos.Observation{Success: true, At: simclock.Epoch},
		Ratings:  map[core.Facet]float64{qos.Accuracy: acc, core.FacetOverall: overall},
		At:       simclock.Epoch,
	}
}

func standardRules(t *testing.T) *Rules {
	t.Helper()
	r, err := NewRules([]Rule{
		{Name: "fast is good", Conditions: []Condition{{qos.ResponseTime, LessThan, 200}}, Verdict: 0.9, Weight: 1},
		{Name: "slow is bad", Conditions: []Condition{{qos.ResponseTime, GreaterThan, 300}}, Verdict: 0.1, Weight: 1},
		{Name: "fast and up is great", Conditions: []Condition{
			{qos.ResponseTime, LessThan, 200}, {qos.Availability, GreaterThan, 0.95},
		}, Verdict: 1, Weight: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRulesFireOnEvidence(t *testing.T) {
	r := standardRules(t)
	for i := 0; i < 10; i++ {
		_ = r.Submit(measured("s-fast", 100))
		_ = r.Submit(measured("s-slow", 400))
	}
	fast, ok := r.Score(core.Query{Subject: "s-fast"})
	if !ok {
		t.Fatal("unknown")
	}
	slow, _ := r.Score(core.Query{Subject: "s-slow"})
	if fast.Score <= slow.Score {
		t.Fatalf("rules ranking wrong: fast=%g slow=%g", fast.Score, slow.Score)
	}
	// Conjunctive rule fired too (availability 1 > 0.95): verdict pulled
	// above the single rule's 0.9.
	if fast.Score <= 0.9 {
		t.Fatalf("conjunctive rule did not fire: %g", fast.Score)
	}
}

func TestRulesSilentBase(t *testing.T) {
	r := standardRules(t)
	for i := 0; i < 3; i++ {
		_ = r.Submit(measured("s-mid", 250)) // no rule covers 200..300
	}
	tv, ok := r.Score(core.Query{Subject: "s-mid"})
	if !ok {
		t.Fatal("unknown")
	}
	if tv.Score != 0.5 || tv.Confidence > 0.2 {
		t.Fatalf("silent rule base = %+v, want neutral low-confidence", tv)
	}
}

func TestRulesValidation(t *testing.T) {
	if _, err := NewRules([]Rule{{Name: "empty"}}); err == nil {
		t.Fatal("rule without conditions accepted")
	}
	if _, err := NewRules([]Rule{{Name: "bad verdict",
		Conditions: []Condition{{qos.Cost, LessThan, 1}}, Verdict: 2, Weight: 1}}); err == nil {
		t.Fatal("out-of-range verdict accepted")
	}
	if _, err := NewRules([]Rule{{Name: "no weight",
		Conditions: []Condition{{qos.Cost, LessThan, 1}}, Verdict: 0.5}}); err == nil {
		t.Fatal("zero weight accepted")
	}
}

func TestRulesMissingEvidenceFailsCondition(t *testing.T) {
	r, err := NewRules([]Rule{{Name: "needs cost",
		Conditions: []Condition{{qos.Cost, LessThan, 5}}, Verdict: 1, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	_ = r.Submit(measured("s001", 100)) // no cost evidence
	tv, _ := r.Score(core.Query{Subject: "s001"})
	if tv.Score != 0.5 {
		t.Fatalf("rule fired without evidence: %g", tv.Score)
	}
}

func TestRulesUnknownInvalidReset(t *testing.T) {
	r := standardRules(t)
	if _, ok := r.Score(core.Query{Subject: "s-x"}); ok {
		t.Fatal("unknown subject known")
	}
	if err := r.Submit(core.Feedback{}); err == nil {
		t.Fatal("invalid feedback accepted")
	}
}

func TestBayesLearnsGoodVsBad(t *testing.T) {
	b := NewBayes()
	// Training: high accuracy ↔ good overall; low accuracy ↔ bad overall.
	for i := 0; i < 30; i++ {
		_ = b.Submit(rated("s-train-good", 0.9, 0.9))
		_ = b.Submit(rated("s-train-bad", 0.1, 0.1))
	}
	good, ok := b.Score(core.Query{Subject: "s-train-good"})
	if !ok {
		t.Fatal("unknown")
	}
	bad, _ := b.Score(core.Query{Subject: "s-train-bad"})
	if good.Score <= 0.7 || bad.Score >= 0.3 {
		t.Fatalf("classifier failed: good=%g bad=%g", good.Score, bad.Score)
	}
	// A new service with high-accuracy evidence classifies as good even
	// though its own overall labels never trained the model.
	for i := 0; i < 5; i++ {
		fb := rated("s-new", 0.95, 0.5) // neutral overall labels
		_ = b.Submit(fb)
	}
	fresh, _ := b.Score(core.Query{Subject: "s-new"})
	if fresh.Score <= 0.5 {
		t.Fatalf("generalization failed: %g", fresh.Score)
	}
}

func TestBayesUntrainedNeutral(t *testing.T) {
	b := NewBayes()
	if _, ok := b.Score(core.Query{Subject: "s-x"}); ok {
		t.Fatal("unknown subject known")
	}
}

func TestBayesInvalidAndReset(t *testing.T) {
	b := NewBayes()
	if err := b.Submit(core.Feedback{}); err == nil {
		t.Fatal("invalid feedback accepted")
	}
}

func TestBinBoundaries(t *testing.T) {
	tests := []struct {
		v    float64
		want int
	}{{0, 0}, {0.33, 0}, {0.34, 1}, {0.5, 1}, {0.66, 1}, {0.67, 2}, {1, 2}}
	for _, tc := range tests {
		if got := bin(tc.v); got != tc.want {
			t.Errorf("bin(%g) = %d, want %d", tc.v, got, tc.want)
		}
	}
}
