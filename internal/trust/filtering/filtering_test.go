package filtering

import (
	"math"
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

// seedBadmouthed: 8 honest raters say ≈0.9; 4 liars say ≈0.05 about
// s-victim. Honest raters also agree with each other on calibration
// subjects; liars disagree with majorities everywhere.
func seedBadmouthed(m *Mechanism) {
	for i := 0; i < 8; i++ {
		c := core.NewConsumerID(i)
		_ = m.Submit(fb(c, "s-cal1", 0.9))
		_ = m.Submit(fb(c, "s-cal2", 0.1))
		_ = m.Submit(fb(c, "s-victim", 0.9))
	}
	for i := 0; i < 4; i++ {
		c := core.NewConsumerID(100 + i)
		_ = m.Submit(fb(c, "s-cal1", 0.1))
		_ = m.Submit(fb(c, "s-cal2", 0.9))
		_ = m.Submit(fb(c, "s-victim", 0.05))
	}
}

func victimScore(t *testing.T, m *Mechanism, perspective core.ConsumerID) float64 {
	t.Helper()
	tv, ok := m.Score(core.Query{Perspective: perspective, Subject: "s-victim"})
	if !ok {
		t.Fatal("victim unknown")
	}
	return tv.Score
}

func TestNoneBaselineIsHurt(t *testing.T) {
	m := New(None)
	seedBadmouthed(m)
	got := victimScore(t, m, "")
	want := (8*0.9 + 4*0.05) / 12
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("undefended mean = %g, want %g", got, want)
	}
}

func TestMajorityDefense(t *testing.T) {
	m := New(Majority)
	seedBadmouthed(m)
	if got := victimScore(t, m, ""); got < 0.85 {
		t.Fatalf("majority defense score = %g, want ≈0.9", got)
	}
}

func TestClusterDefense(t *testing.T) {
	m := New(Cluster)
	seedBadmouthed(m)
	if got := victimScore(t, m, ""); got < 0.85 {
		t.Fatalf("cluster defense score = %g, want ≈0.9", got)
	}
}

func TestZhangCohenDefense(t *testing.T) {
	m := New(ZhangCohen)
	seedBadmouthed(m)
	// Perspective c000 has direct experience agreeing with honest raters.
	if got := victimScore(t, m, core.NewConsumerID(0)); got < 0.8 {
		t.Fatalf("zhang-cohen score = %g, want high", got)
	}
}

func TestAllDefensesBeatBaselineUnderBadmouthing(t *testing.T) {
	base := New(None)
	seedBadmouthed(base)
	baseline := victimScore(t, base, "")
	for _, s := range []Strategy{Majority, Cluster, ZhangCohen} {
		m := New(s)
		seedBadmouthed(m)
		if got := victimScore(t, m, core.NewConsumerID(0)); got <= baseline {
			t.Errorf("%v defense %g not above baseline %g", s, got, baseline)
		}
	}
}

func TestClusterKeepsUnimodalRatings(t *testing.T) {
	m := New(Cluster)
	// Genuine spread around 0.6 — no attack. The filter must not amputate.
	for i, v := range []float64{0.5, 0.55, 0.6, 0.65, 0.7, 0.6} {
		_ = m.Submit(fb(core.NewConsumerID(i), "s001", v))
	}
	tv, _ := m.Score(core.Query{Subject: "s001"})
	if math.Abs(tv.Score-0.6) > 0.05 {
		t.Fatalf("unimodal ratings distorted: %g", tv.Score)
	}
}

func TestClusterSmallSampleFallsBack(t *testing.T) {
	m := New(Cluster)
	_ = m.Submit(fb("c1", "s001", 0.9))
	_ = m.Submit(fb("c2", "s001", 0.1))
	tv, _ := m.Score(core.Query{Subject: "s001"})
	if math.Abs(tv.Score-0.5) > 1e-9 {
		t.Fatalf("small-sample cluster = %g, want plain mean 0.5", tv.Score)
	}
}

func TestMajorityBallotStuffing(t *testing.T) {
	// Ballot stuffing: a minority of shills pump a bad service. Majority
	// keeps the honest low verdict.
	m := New(Majority)
	for i := 0; i < 8; i++ {
		_ = m.Submit(fb(core.NewConsumerID(i), "s-bad", 0.1))
	}
	for i := 0; i < 4; i++ {
		_ = m.Submit(fb(core.NewConsumerID(200+i), "s-bad", 1))
	}
	tv, _ := m.Score(core.Query{Subject: "s-bad"})
	if tv.Score > 0.2 {
		t.Fatalf("ballot stuffing lifted score to %g", tv.Score)
	}
}

func TestZhangCohenWithoutPrivateHistoryUsesPublic(t *testing.T) {
	m := New(ZhangCohen)
	seedBadmouthed(m)
	// A stranger with no ratings still gets a defended score via public
	// advisor reputations.
	if got := victimScore(t, m, "stranger"); got < 0.7 {
		t.Fatalf("public-only zhang-cohen = %g", got)
	}
}

func TestStrategyNames(t *testing.T) {
	tests := map[Strategy]string{
		None: "filter-none", Majority: "filter-majority",
		Cluster: "filter-cluster", ZhangCohen: "filter-zhang-cohen",
	}
	for s, want := range tests {
		if got := New(s).Name(); got != want {
			t.Errorf("Name(%v) = %q, want %q", s, got, want)
		}
	}
}

func TestUnknownInvalidReset(t *testing.T) {
	m := New(Majority)
	if _, ok := m.Score(core.Query{Subject: "s-x"}); ok {
		t.Fatal("unknown subject known")
	}
	if err := m.Submit(core.Feedback{}); err == nil {
		t.Fatal("invalid feedback accepted")
	}
}
