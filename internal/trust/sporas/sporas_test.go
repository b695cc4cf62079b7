package sporas

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"wstrust/internal/core"
	"wstrust/internal/simclock"
)

func fb(c core.ConsumerID, s core.ServiceID, v float64, at time.Time) core.Feedback {
	return core.Feedback{
		Consumer: c, Service: s,
		Ratings: map[core.Facet]float64{core.FacetOverall: v}, At: at,
	}
}

func submitN(t *testing.T, m *Mechanism, c core.ConsumerID, s core.ServiceID, v float64, n int) {
	t.Helper()
	at := simclock.Epoch
	for i := 0; i < n; i++ {
		if err := m.Submit(fb(c, s, v, at)); err != nil {
			t.Fatal(err)
		}
		at = at.Add(time.Minute)
	}
}

func TestNewEntityStartsAtBottom(t *testing.T) {
	m := New()
	_ = m.Submit(fb("c001", "s001", 0.5, simclock.Epoch))
	tv, ok := m.Score(core.Query{Subject: "s001"})
	if !ok {
		t.Fatal("rated subject unknown")
	}
	// One mediocre rating lifts it only slightly above 0.
	if tv.Score > 0.2 {
		t.Fatalf("newcomer score = %g, want near 0", tv.Score)
	}
}

func TestReputationConvergesTowardRatings(t *testing.T) {
	m := New(WithTheta(5))
	submitN(t, m, "c001", "s001", 0.9, 200)
	tv, _ := m.Score(core.Query{Subject: "s001"})
	if tv.Score < 0.7 {
		t.Fatalf("score after 200×0.9 = %g, want ≥ 0.7", tv.Score)
	}
}

func TestRecentBehaviourDominates(t *testing.T) {
	m := New(WithTheta(5))
	submitN(t, m, "c001", "s001", 0.9, 100)
	high, _ := m.Score(core.Query{Subject: "s001"})
	submitN(t, m, "c001", "s001", 0.1, 100)
	low, _ := m.Score(core.Query{Subject: "s001"})
	if low.Score >= high.Score-0.3 {
		t.Fatalf("reputation did not track recent drop: %g → %g", high.Score, low.Score)
	}
}

func TestDampingNearTop(t *testing.T) {
	// Updates shrink as reputation climbs: the step from 100 ratings to 200
	// is smaller than from 0 to 100.
	m := New(WithTheta(5))
	submitN(t, m, "c001", "s001", 1, 100)
	mid, _ := m.Score(core.Query{Subject: "s001"})
	submitN(t, m, "c001", "s001", 1, 100)
	late, _ := m.Score(core.Query{Subject: "s001"})
	if late.Score-mid.Score >= mid.Score {
		t.Fatalf("no damping: 0→%g then →%g", mid.Score, late.Score)
	}
}

func TestWhitewashingResistance(t *testing.T) {
	// A long-standing decent service (0.6 forever) vs a brand-new identity:
	// the newcomer must start below, not at parity — re-entering the system
	// cannot erase a record.
	m := New(WithTheta(5))
	submitN(t, m, "c001", "s-old", 0.6, 100)
	old, _ := m.Score(core.Query{Subject: "s-old"})
	_ = m.Submit(fb("c001", "s-new", 0.6, simclock.Epoch))
	fresh, _ := m.Score(core.Query{Subject: "s-new"})
	if fresh.Score >= old.Score {
		t.Fatalf("whitewashed identity %g ≥ established %g", fresh.Score, old.Score)
	}
}

func TestErraticRatingsCutConfidence(t *testing.T) {
	steady := New(WithTheta(5))
	submitN(t, steady, "c001", "s001", 0.8, 60)
	sv, _ := steady.Score(core.Query{Subject: "s001"})

	erratic := New(WithTheta(5))
	at := simclock.Epoch
	for i := 0; i < 60; i++ {
		v := 0.0
		if i%2 == 0 {
			v = 1.0
		}
		_ = erratic.Submit(fb("c001", "s001", v, at))
		at = at.Add(time.Minute)
	}
	ev, _ := erratic.Score(core.Query{Subject: "s001"})
	if ev.Confidence >= sv.Confidence {
		t.Fatalf("erratic confidence %g ≥ steady %g", ev.Confidence, sv.Confidence)
	}
}

func TestHistosDirectExperienceWins(t *testing.T) {
	m := New(WithHistos(true))
	submitN(t, m, "c001", "s001", 0.2, 1)
	// Everybody else loves it.
	for i := 2; i < 8; i++ {
		submitN(t, m, core.NewConsumerID(i), "s001", 1, 1)
	}
	tv, ok := m.Score(core.Query{Perspective: "c001", Subject: "s001"})
	if !ok {
		t.Fatal("unknown")
	}
	if tv.Score != 0.2 {
		t.Fatalf("direct experience overridden: %g", tv.Score)
	}
}

func TestHistosPersonalizedViaAgreement(t *testing.T) {
	m := New(WithHistos(true))
	at := simclock.Epoch
	// Two camps with opposite tastes on shared services s-a, s-b.
	// Camp A (c001, c002): love s-a, hate s-b. Camp B (c003, c004): reverse.
	for _, c := range []core.ConsumerID{"c001", "c002"} {
		_ = m.Submit(fb(c, "s-a", 1, at))
		_ = m.Submit(fb(c, "s-b", 0, at))
	}
	for _, c := range []core.ConsumerID{"c003", "c004"} {
		_ = m.Submit(fb(c, "s-a", 0, at))
		_ = m.Submit(fb(c, "s-b", 1, at))
	}
	// Target service rated differently by the camps.
	_ = m.Submit(fb("c002", "s-target", 0.9, at))
	_ = m.Submit(fb("c004", "s-target", 0.1, at))

	forA, okA := m.Score(core.Query{Perspective: "c001", Subject: "s-target"})
	forB, okB := m.Score(core.Query{Perspective: "c003", Subject: "s-target"})
	if !okA || !okB {
		t.Fatal("personalized walk found no path")
	}
	if forA.Score <= forB.Score {
		t.Fatalf("personalization inverted: likeminded %g ≤ opposite %g", forA.Score, forB.Score)
	}
	if forA.Score < 0.7 || forB.Score > 0.3 {
		t.Fatalf("camps not separated: A=%g B=%g", forA.Score, forB.Score)
	}
}

func TestHistosFallsBackToSporas(t *testing.T) {
	m := New(WithHistos(true))
	// c-lonely has no ratings at all → no paths → Sporas global answer.
	submitN(t, m, "c001", "s001", 0.9, 50)
	global, _ := m.Score(core.Query{Subject: "s001"})
	personal, ok := m.Score(core.Query{Perspective: "c-lonely", Subject: "s001"})
	if !ok {
		t.Fatal("fallback failed")
	}
	if personal != global {
		t.Fatalf("fallback %+v != global %+v", personal, global)
	}
}

func TestUnknownSubject(t *testing.T) {
	m := New()
	if _, ok := m.Score(core.Query{Subject: "s-x"}); ok {
		t.Fatal("unknown subject known")
	}
}

func TestSubmitRejectsInvalid(t *testing.T) {
	if err := New().Submit(core.Feedback{}); err == nil {
		t.Fatal("invalid feedback accepted")
	}
}

// Property: reputation stays in [0,1] under arbitrary rating sequences.
func TestReputationBoundsProperty(t *testing.T) {
	f := func(vals []float64) bool {
		m := New(WithTheta(2)) // aggressive updates stress the bounds
		at := simclock.Epoch
		for _, v := range vals {
			vv := math.Abs(math.Mod(v, 1))
			if math.IsNaN(vv) {
				vv = 0.5
			}
			if err := m.Submit(fb("c001", "s001", vv, at)); err != nil {
				return false
			}
			at = at.Add(time.Second)
			tv, _ := m.Score(core.Query{Subject: "s001"})
			if tv.Score < 0 || tv.Score > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
