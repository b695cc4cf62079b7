package beta

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
		Consumer: c, Service: s, Provider: "p001", Context: "weather",
		Ratings: map[core.Facet]float64{core.FacetOverall: v}, At: at,
	}
}

func q(s core.EntityID) core.Query {
	return core.Query{Subject: s, Context: "weather", Facet: core.FacetOverall}
}

func TestUnknownSubject(t *testing.T) {
	m := New()
	tv, ok := m.Score(q("s001"))
	if ok {
		t.Fatal("unknown subject reported known")
	}
	if tv.Score != 0.5 || tv.Confidence != 0 {
		t.Fatalf("unknown score = %+v", tv)
	}
}

func TestPositiveEvidenceRaisesScore(t *testing.T) {
	m := New()
	for i := 0; i < 10; i++ {
		if err := m.Submit(fb("c001", "s001", 1, simclock.Epoch.Add(time.Duration(i)*time.Minute))); err != nil {
			t.Fatal(err)
		}
	}
	tv, ok := m.Score(q("s001"))
	if !ok {
		t.Fatal("rated subject unknown")
	}
	// 10 positives: (10+1)/(10+2) ≈ 0.917.
	if math.Abs(tv.Score-11.0/12.0) > 1e-12 {
		t.Fatalf("score = %g, want %g", tv.Score, 11.0/12.0)
	}
	if tv.Confidence <= 0.5 {
		t.Fatalf("confidence = %g, want > 0.5 after 10 observations", tv.Confidence)
	}
}

func TestNegativeEvidenceLowersScore(t *testing.T) {
	m := New()
	for i := 0; i < 10; i++ {
		_ = m.Submit(fb("c001", "s001", 0, simclock.Epoch))
	}
	tv, _ := m.Score(q("s001"))
	if tv.Score >= 0.2 {
		t.Fatalf("score after 10 negatives = %g", tv.Score)
	}
}

func TestSubmitRejectsInvalid(t *testing.T) {
	m := New()
	if err := m.Submit(core.Feedback{}); err == nil {
		t.Fatal("invalid feedback accepted")
	}
}

func TestContextIsolation(t *testing.T) {
	// Section 3: "in the context of seeing a doctor, John is trustworthy,
	// but in the context of fixing a car, John is untrustworthy."
	m := New()
	good := fb("c001", "s001", 1, simclock.Epoch)
	good.Context = "doctor"
	bad := fb("c001", "s001", 0, simclock.Epoch)
	bad.Context = "mechanic"
	for i := 0; i < 5; i++ {
		_ = m.Submit(good)
		_ = m.Submit(bad)
	}
	doc, _ := m.Score(core.Query{Subject: "s001", Context: "doctor", Facet: core.FacetOverall})
	mech, _ := m.Score(core.Query{Subject: "s001", Context: "mechanic", Facet: core.FacetOverall})
	if doc.Score <= 0.7 || mech.Score >= 0.3 {
		t.Fatalf("contexts bleed: doctor=%g mechanic=%g", doc.Score, mech.Score)
	}
}

func TestDecayForgetsOldBehaviour(t *testing.T) {
	// A service that was bad and turned good: with decay the recent good
	// experiences dominate; without decay the past drags the score down.
	build := func(opts ...Option) float64 {
		m := New(opts...)
		at := simclock.Epoch
		for i := 0; i < 20; i++ {
			_ = m.Submit(fb("c001", "s001", 0, at))
			at = at.Add(time.Minute)
		}
		at = at.Add(24 * time.Hour)
		for i := 0; i < 5; i++ {
			_ = m.Submit(fb("c001", "s001", 1, at))
			at = at.Add(time.Minute)
		}
		tv, _ := m.Score(q("s001"))
		return tv.Score
	}
	withDecay := build(WithHalfLife(time.Hour))
	withoutDecay := build()
	if withDecay <= withoutDecay {
		t.Fatalf("decay did not help recovery: with=%g without=%g", withDecay, withoutDecay)
	}
	if withDecay < 0.7 {
		t.Fatalf("decayed score = %g, want recent behaviour to dominate", withDecay)
	}
	if withoutDecay > 0.4 {
		t.Fatalf("undecayed score = %g, want history to dominate", withoutDecay)
	}
}

func TestPersonalizedBlendsDirectAndPublic(t *testing.T) {
	m := New(WithPersonalized(true))
	// Public opinion: great (9 consumers say 1).
	for i := 2; i <= 10; i++ {
		_ = m.Submit(fb(core.NewConsumerID(i), "s001", 1, simclock.Epoch))
	}
	// c001's own experience: terrible.
	for i := 0; i < 9; i++ {
		_ = m.Submit(fb("c001", "s001", 0, simclock.Epoch))
	}
	personal, _ := m.Score(core.Query{Perspective: "c001", Subject: "s001", Context: "weather", Facet: core.FacetOverall})
	public, _ := m.Score(q("s001"))
	if personal.Score >= public.Score {
		t.Fatalf("personal %g should sit below public %g", personal.Score, public.Score)
	}
	// A consumer with no direct experience sees the public view.
	fresh, _ := m.Score(core.Query{Perspective: "c099", Subject: "s001", Context: "weather", Facet: core.FacetOverall})
	if math.Abs(fresh.Score-public.Score) > 1e-12 {
		t.Fatalf("fresh perspective %g != public %g", fresh.Score, public.Score)
	}
}

func TestGlobalModeIgnoresPerspective(t *testing.T) {
	m := New()
	_ = m.Submit(fb("c001", "s001", 0, simclock.Epoch))
	a, _ := m.Score(core.Query{Perspective: "c001", Subject: "s001", Context: "weather", Facet: core.FacetOverall})
	b, _ := m.Score(q("s001"))
	if a != b {
		t.Fatalf("global mode gave perspective-dependent answers: %+v vs %+v", a, b)
	}
}

func TestProviderReputation(t *testing.T) {
	m := New()
	_ = m.Submit(fb("c001", "s001", 1, simclock.Epoch))
	_ = m.Submit(fb("c002", "s002", 1, simclock.Epoch)) // same provider p001
	tv, ok := m.ScoreProvider(core.Query{Subject: "p001", Context: "weather", Facet: core.FacetOverall})
	if !ok {
		t.Fatal("provider unknown despite service feedback")
	}
	if tv.Score <= 0.5 {
		t.Fatalf("provider score = %g", tv.Score)
	}
	if _, ok := m.ScoreProvider(core.Query{Subject: "p-x", Context: "weather", Facet: core.FacetOverall}); ok {
		t.Fatal("unknown provider reported known")
	}
}

func TestFacetSpecificTrust(t *testing.T) {
	// Multi-faceted: great accuracy, terrible response time.
	m := New()
	f := fb("c001", "s001", 0.5, simclock.Epoch)
	f.Ratings = map[core.Facet]float64{"accuracy": 1, "response-time": 0}
	for i := 0; i < 5; i++ {
		_ = m.Submit(f)
	}
	acc, _ := m.Score(core.Query{Subject: "s001", Context: "weather", Facet: "accuracy"})
	rt, _ := m.Score(core.Query{Subject: "s001", Context: "weather", Facet: "response-time"})
	if acc.Score <= 0.7 || rt.Score >= 0.3 {
		t.Fatalf("facets bleed: accuracy=%g response-time=%g", acc.Score, rt.Score)
	}
	// Overall derives from the facet mean (0.5).
	ov, _ := m.Score(q("s001"))
	if math.Abs(ov.Score-0.5) > 0.1 {
		t.Fatalf("overall = %g, want ≈0.5", ov.Score)
	}
}

func TestContextWildcardFallback(t *testing.T) {
	m := New()
	f := fb("c001", "s001", 1, simclock.Epoch)
	f.Context = core.ContextAny
	_ = m.Submit(f)
	tv, ok := m.Score(core.Query{Subject: "s001", Context: "weather", Facet: core.FacetOverall})
	if !ok || tv.Score <= 0.5 {
		t.Fatalf("wildcard fallback failed: %+v ok=%v", tv, ok)
	}
}

// Property: score is always within [0,1], confidence within [0,1), and
// more positive than negative evidence implies score > 0.5.
func TestScoreBoundsProperty(t *testing.T) {
	f := func(pos, neg uint8) bool {
		m := New()
		at := simclock.Epoch
		for i := 0; i < int(pos%50); i++ {
			_ = m.Submit(fb("c001", "s001", 1, at))
		}
		for i := 0; i < int(neg%50); i++ {
			_ = m.Submit(fb("c001", "s001", 0, at))
		}
		tv, _ := m.Score(q("s001"))
		if tv.Score < 0 || tv.Score > 1 || tv.Confidence < 0 || tv.Confidence >= 1 {
			return false
		}
		p, n := int(pos%50), int(neg%50)
		if p > n && tv.Score <= 0.5 {
			return false
		}
		if n > p && tv.Score >= 0.5 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
