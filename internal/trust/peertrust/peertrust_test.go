package peertrust

import (
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/simclock"
)

func fb(c core.ConsumerID, s core.ServiceID, v float64) core.Feedback {
	return core.Feedback{
		Consumer: c, Service: s,
		Ratings: map[core.Facet]float64{core.FacetOverall: v}, At: simclock.Epoch,
	}
}

// seedHonestAndLiars: honest raters agree with each other across several
// calibration services and rate s-victim accurately high; liars rate the
// calibration services perversely and badmouth s-victim.
func seedHonestAndLiars(m *Mechanism) {
	honest := []core.ConsumerID{"h1", "h2", "h3", "h4"}
	liars := []core.ConsumerID{"l1", "l2"}
	for _, c := range honest {
		_ = m.Submit(fb(c, "s-cal1", 0.9))
		_ = m.Submit(fb(c, "s-cal2", 0.2))
		_ = m.Submit(fb(c, "s-victim", 0.9))
	}
	for _, c := range liars {
		_ = m.Submit(fb(c, "s-cal1", 0.1))
		_ = m.Submit(fb(c, "s-cal2", 0.9))
		_ = m.Submit(fb(c, "s-victim", 0.05))
	}
}

func TestCredibilityWeightingDefendsAgainstBadmouthing(t *testing.T) {
	m := New()
	seedHonestAndLiars(m)
	// From an honest evaluator's perspective the liars have near-zero PSM
	// credibility, so the victim's score stays high.
	tv, ok := m.Score(core.Query{Perspective: "h1", Subject: "s-victim"})
	if !ok {
		t.Fatal("unknown")
	}
	if tv.Score < 0.7 {
		t.Fatalf("badmouthing depressed the score to %g", tv.Score)
	}
	// A naive unweighted mean would be (4·0.9+2·0.05)/6 = 0.62: PSM must
	// do better than that.
	if tv.Score <= 0.62 {
		t.Fatalf("PSM no better than plain mean: %g", tv.Score)
	}
}

func TestGlobalCredibilityPenalizesOutliers(t *testing.T) {
	m := New()
	seedHonestAndLiars(m)
	if hc, lc := m.RaterCredibility("h1"), m.RaterCredibility("l1"); hc <= lc {
		t.Fatalf("honest credibility %g not above liar %g", hc, lc)
	}
	// Even without a perspective, the global score resists the liars
	// (majority-agreement credibility).
	tv, _ := m.Score(core.Query{Subject: "s-victim"})
	if tv.Score <= 0.62 {
		t.Fatalf("global weighted score %g not above naive mean", tv.Score)
	}
}

func TestPSM(t *testing.T) {
	m := New()
	seedHonestAndLiars(m)
	same, ok := m.psmLockedForTest("h1", "h2")
	if !ok || same < 0.95 {
		t.Fatalf("honest-honest PSM = %g ok=%v", same, ok)
	}
	opp, _ := m.psmLockedForTest("h1", "l1")
	if opp > 0.5 {
		t.Fatalf("honest-liar PSM = %g, want low", opp)
	}
}

// psmLockedForTest exposes psm under lock for white-box testing.
func (m *Mechanism) psmLockedForTest(a, b core.ConsumerID) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.psm(a, b)
}

func TestMinOverlapDefaultsUnknownRater(t *testing.T) {
	m := New()
	seedHonestAndLiars(m)
	// The newcomer shares no rated subject with anyone, so no rater
	// qualifies for PSM → everyone gets the default 0.3 credibility →
	// plain mean.
	_ = m.Submit(fb("newcomer", "s-elsewhere", 0.5))
	if _, ok := m.psmLockedForTest("newcomer", "h2"); ok {
		t.Fatal("PSM computed without a co-rated subject")
	}
	tv, _ := m.Score(core.Query{Perspective: "newcomer", Subject: "s-victim"})
	if tv.Score < 0.5 || tv.Score > 0.7 {
		t.Fatalf("fallback mean out of band: %g", tv.Score)
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
	seedHonestAndLiars(m)
	if len(m.Raters()) != 6 {
		t.Fatalf("raters = %v", m.Raters())
	}
}
