package ebay

import (
	"testing"
	"time"

	"wstrust/internal/core"
	"wstrust/internal/simclock"
)

func fb(c core.ConsumerID, s core.ServiceID, v float64, at time.Time) core.Feedback {
	return core.Feedback{
		Consumer: c, Service: s, Provider: "p001",
		Ratings: map[core.Facet]float64{core.FacetOverall: v}, At: at,
	}
}

func TestTernary(t *testing.T) {
	tests := []struct {
		v    float64
		want int
	}{
		{1, 1}, {0.7, 1}, {0.61, 1},
		{0.6, 0}, {0.5, 0}, {0.4, 0},
		{0.39, -1}, {0, -1},
	}
	for _, tc := range tests {
		if got := Ternary(tc.v); got != tc.want {
			t.Errorf("Ternary(%g) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func TestFeedbackScoreCumulative(t *testing.T) {
	m := New()
	at := simclock.Epoch
	for _, v := range []float64{1, 1, 1, 0, 0.5, 0.1} { // +3, 1 neutral, −2
		_ = m.Submit(fb("c001", "s001", v, at))
		at = at.Add(time.Minute)
	}
	if got := m.FeedbackScore("s001"); got != 1 {
		t.Fatalf("FeedbackScore = %d, want 1", got)
	}
	if got := m.FeedbackScore("s-unknown"); got != 0 {
		t.Fatalf("unknown FeedbackScore = %d", got)
	}
}

func TestScorePositiveFraction(t *testing.T) {
	m := New()
	at := simclock.Epoch
	for _, v := range []float64{1, 1, 1, 0} { // 3 pos, 1 neg
		_ = m.Submit(fb("c001", "s001", v, at))
	}
	tv, ok := m.Score(core.Query{Subject: "s001"})
	if !ok {
		t.Fatal("rated subject unknown")
	}
	if tv.Score != 0.75 {
		t.Fatalf("Score = %g, want 0.75", tv.Score)
	}
	// The fraction covers all history: negatives from a month before the
	// latest positives still count.
	for i := 0; i < 10; i++ {
		_ = m.Submit(fb("c001", "s002", 0, at))
	}
	recent := at.Add(30 * 24 * time.Hour)
	for i := 0; i < 3; i++ {
		_ = m.Submit(fb("c001", "s002", 1, recent))
	}
	if tv, _ := m.Score(core.Query{Subject: "s002"}); tv.Score != 3.0/13 {
		t.Fatalf("Score = %g, want 3/13 over all history", tv.Score)
	}
}

func TestScoreUnknown(t *testing.T) {
	m := New()
	if _, ok := m.Score(core.Query{Subject: "s-x"}); ok {
		t.Fatal("unknown subject known")
	}
}

func TestScoreOnlyNeutrals(t *testing.T) {
	m := New()
	_ = m.Submit(fb("c001", "s001", 0.5, simclock.Epoch))
	tv, ok := m.Score(core.Query{Subject: "s001"})
	if !ok {
		t.Fatal("neutral-only subject should still be known")
	}
	if tv.Score != 0.5 || tv.Confidence != 0 {
		t.Fatalf("neutral-only = %+v", tv)
	}
}

func TestProviderScore(t *testing.T) {
	m := New()
	_ = m.Submit(fb("c001", "s001", 1, simclock.Epoch))
	_ = m.Submit(fb("c001", "s002", 1, simclock.Epoch)) // same provider
	tv, ok := m.ScoreProvider(core.Query{Subject: "p001"})
	if !ok || tv.Score != 1 {
		t.Fatalf("provider score = %+v ok=%v", tv, ok)
	}
}

func TestGlobalIgnoresPerspective(t *testing.T) {
	m := New()
	_ = m.Submit(fb("c001", "s001", 1, simclock.Epoch))
	a, _ := m.Score(core.Query{Subject: "s001", Perspective: "c001"})
	b, _ := m.Score(core.Query{Subject: "s001", Perspective: "c999"})
	if a != b {
		t.Fatal("eBay gave personalized answers")
	}
}

func TestConfidenceGrowsWithVolume(t *testing.T) {
	m := New()
	_ = m.Submit(fb("c001", "s001", 1, simclock.Epoch))
	one, _ := m.Score(core.Query{Subject: "s001"})
	for i := 0; i < 20; i++ {
		_ = m.Submit(fb("c001", "s001", 1, simclock.Epoch))
	}
	many, _ := m.Score(core.Query{Subject: "s001"})
	if many.Confidence <= one.Confidence {
		t.Fatalf("confidence did not grow: %g → %g", one.Confidence, many.Confidence)
	}
}

func TestSubmitRejectsInvalid(t *testing.T) {
	m := New()
	if err := m.Submit(core.Feedback{}); err == nil {
		t.Fatal("invalid feedback accepted")
	}
}
