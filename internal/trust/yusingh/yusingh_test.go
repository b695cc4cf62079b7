package yusingh

import (
	"testing"
	"testing/quick"

	"wstrust/internal/core"
	"wstrust/internal/p2p"
	"wstrust/internal/simclock"
)

func consumers(n int) []core.ConsumerID {
	out := make([]core.ConsumerID, n)
	for i := range out {
		out[i] = core.NewConsumerID(i + 1)
	}
	return out
}

func newMech(t *testing.T, n int, opts ...Option) (*Mechanism, []core.ConsumerID) {
	t.Helper()
	net := p2p.NewNetwork()
	cs := consumers(n)
	ids := make([]p2p.NodeID, n)
	for i, c := range cs {
		ids[i] = p2p.NodeID(c)
		net.Join(ids[i], nil) // placeholder; New re-joins with real handlers
	}
	overlay := p2p.NewRandomOverlay(net, ids, 4, simclock.NewRand(5))
	return New(overlay, cs, opts...), cs
}

func fb(c core.ConsumerID, s core.ServiceID, v float64) core.Feedback {
	return core.Feedback{
		Consumer: c, Service: s,
		Ratings: map[core.Facet]float64{core.FacetOverall: v}, At: simclock.Epoch,
	}
}

func TestMassInvariants(t *testing.T) {
	if !VacuousMass().Valid() {
		t.Fatal("vacuous invalid")
	}
	m := FromEvidence(8, 2)
	if !m.Valid() {
		t.Fatalf("evidence mass invalid: %+v", m)
	}
	if m.T <= m.F {
		t.Fatalf("positive evidence did not dominate: %+v", m)
	}
}

func TestCombineAgreementStrengthens(t *testing.T) {
	a := FromEvidence(4, 1)
	fused := Combine(a, a)
	if !fused.Valid() {
		t.Fatalf("invalid combination: %+v", fused)
	}
	if fused.T <= a.T || fused.U >= a.U {
		t.Fatalf("agreement did not strengthen belief: %+v vs %+v", fused, a)
	}
}

func TestCombineTotalConflict(t *testing.T) {
	yes := Mass{T: 1}
	no := Mass{F: 1}
	if got := Combine(yes, no); got != VacuousMass() {
		t.Fatalf("total conflict = %+v, want vacuous", got)
	}
}

func TestDiscountPushesToUncertainty(t *testing.T) {
	m := FromEvidence(10, 0)
	d := Discount(m, 0.5)
	if !d.Valid() || d.U <= m.U || d.T >= m.T {
		t.Fatalf("discount wrong: %+v → %+v", m, d)
	}
	if got := Discount(m, 0); got.U != 1 {
		t.Fatalf("zero discount = %+v", got)
	}
}

// Property: Combine preserves validity for arbitrary evidence masses.
func TestCombineValidProperty(t *testing.T) {
	f := func(p1, n1, p2, n2 uint16) bool {
		a := FromEvidence(float64(p1%200), float64(n1%200))
		b := FromEvidence(float64(p2%200), float64(n2%200))
		return Combine(a, b).Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectExperienceSufficiency(t *testing.T) {
	m, cs := newMech(t, 8, WithLocalSufficiency(5))
	// c1 has 6 direct bad experiences; everyone else says good.
	for i := 0; i < 6; i++ {
		_ = m.Submit(fb(cs[0], "s001", 0))
	}
	for _, c := range cs[1:] {
		_ = m.Submit(fb(c, "s001", 1))
	}
	before := m.MessageCount()
	tv, ok := m.Score(core.Query{Perspective: cs[0], Subject: "s001"})
	if !ok {
		t.Fatal("unknown")
	}
	if tv.Score > 0.3 {
		t.Fatalf("sufficient direct evidence overridden: %g", tv.Score)
	}
	if m.MessageCount() != before {
		t.Fatal("sufficient local evidence still queried witnesses")
	}
}

func TestWitnessQueryWhenLocalThin(t *testing.T) {
	m, cs := newMech(t, 10)
	// Only distant agents have experience; the origin has none.
	for _, c := range cs[5:] {
		for i := 0; i < 5; i++ {
			_ = m.Submit(fb(c, "s-good", 1))
		}
	}
	before := m.MessageCount()
	tv, ok := m.Score(core.Query{Perspective: cs[0], Subject: "s-good"})
	if !ok {
		t.Fatal("witness query found nothing")
	}
	if tv.Score <= 0.6 {
		t.Fatalf("witness belief too weak: %g", tv.Score)
	}
	if m.MessageCount() <= before {
		t.Fatal("witness query cost no messages")
	}
}

func TestReferralDepthBoundsReach(t *testing.T) {
	// Depth 0... not allowed; depth 1 reaches only direct neighbours. Put
	// the only witness far away on a ring and verify a shallow query
	// misses it while a deep one finds it.
	net := p2p.NewNetwork()
	cs := consumers(10)
	ids := make([]p2p.NodeID, len(cs))
	for i, c := range cs {
		ids[i] = p2p.NodeID(c)
	}
	overlay := p2p.NewRandomOverlay(net, ids, 2, simclock.NewRand(1)) // pure ring
	shallow := New(overlay, cs, WithDepth(1))
	// witness c006 is ~5 hops from c001 on the ring.
	for i := 0; i < 5; i++ {
		_ = shallow.Submit(fb(cs[5], "s-far", 1))
	}
	tv, ok := shallow.Score(core.Query{Perspective: cs[0], Subject: "s-far"})
	if !ok {
		t.Fatal("subject should be known (counts global)")
	}
	if tv.Confidence != 0 {
		t.Fatalf("depth-1 query should find nothing: %+v", tv)
	}
	deep := New(overlay, cs, WithDepth(6))
	for i := 0; i < 5; i++ {
		_ = deep.Submit(fb(cs[5], "s-far", 1))
	}
	tv2, _ := deep.Score(core.Query{Perspective: cs[0], Subject: "s-far"})
	if tv2.Confidence <= 0 || tv2.Score <= 0.5 {
		t.Fatalf("deep referral failed: %+v", tv2)
	}
}

func TestHopDiscountWeakensFarTestimony(t *testing.T) {
	net := p2p.NewNetwork()
	cs := consumers(10)
	ids := make([]p2p.NodeID, len(cs))
	for i, c := range cs {
		ids[i] = p2p.NodeID(c)
	}
	overlay := p2p.NewRandomOverlay(net, ids, 2, simclock.NewRand(1)) // ring
	m := New(overlay, cs, WithDepth(6), WithReferralDiscount(0.6))
	for i := 0; i < 10; i++ {
		_ = m.Submit(fb(cs[5], "s-far", 1))  // ~5 hops away
		_ = m.Submit(fb(cs[1], "s-near", 1)) // direct neighbour
	}
	far, _ := m.Score(core.Query{Perspective: cs[0], Subject: "s-far"})
	near, _ := m.Score(core.Query{Perspective: cs[0], Subject: "s-near"})
	if far.Confidence >= near.Confidence {
		t.Fatalf("hop discount missing: far conf %g ≥ near conf %g", far.Confidence, near.Confidence)
	}
}

func TestGlobalFuse(t *testing.T) {
	m, cs := newMech(t, 6)
	for _, c := range cs {
		_ = m.Submit(fb(c, "s001", 1))
	}
	tv, ok := m.Score(core.Query{Subject: "s001"})
	if !ok || tv.Score <= 0.8 {
		t.Fatalf("global fuse = %+v ok=%v", tv, ok)
	}
}

func TestUnknownInvalidReset(t *testing.T) {
	m, cs := newMech(t, 4)
	if _, ok := m.Score(core.Query{Perspective: cs[0], Subject: "s-x"}); ok {
		t.Fatal("unknown subject known")
	}
	if err := m.Submit(core.Feedback{}); err == nil {
		t.Fatal("invalid feedback accepted")
	}
}

func TestLazyAgentCreation(t *testing.T) {
	m, _ := newMech(t, 4)
	// A consumer that was never pre-registered can still submit and score.
	if err := m.Submit(fb("c-late", "s001", 1)); err != nil {
		t.Fatal(err)
	}
	tv, ok := m.Score(core.Query{Perspective: "c-late", Subject: "s001"})
	if !ok || tv.Score <= 0.5 {
		t.Fatalf("late agent broken: %+v ok=%v", tv, ok)
	}
}

func TestAdaptiveReferralsShortenChains(t *testing.T) {
	// Ring overlay with the only witness several hops away: the first query
	// pays the full referral depth; with adaptation the origin learns the
	// witness and later queries reach it directly, raising confidence.
	build := func(adaptive bool) (*Mechanism, []core.ConsumerID) {
		net := p2p.NewNetwork()
		cs := consumers(10)
		ids := make([]p2p.NodeID, len(cs))
		for i, c := range cs {
			ids[i] = p2p.NodeID(c)
		}
		overlay := p2p.NewRandomOverlay(net, ids, 2, simclock.NewRand(1)) // ring
		var opts []Option
		opts = append(opts, WithDepth(6), WithReferralDiscount(0.6))
		if adaptive {
			opts = append(opts, WithAdaptiveReferrals(4))
		}
		return New(overlay, cs, opts...), cs
	}

	for _, adaptive := range []bool{false, true} {
		m, cs := build(adaptive)
		for i := 0; i < 10; i++ {
			_ = m.Submit(fb(cs[5], "s-far", 1)) // witness ~5 hops from cs[0]
		}
		first, _ := m.Score(core.Query{Perspective: cs[0], Subject: "s-far"})
		second, _ := m.Score(core.Query{Perspective: cs[0], Subject: "s-far"})
		if adaptive {
			if len(m.Shortcuts(cs[0])) == 0 {
				t.Fatal("adaptation recorded no shortcuts")
			}
			if second.Confidence <= first.Confidence {
				t.Fatalf("adaptive repeat query did not gain confidence: %g → %g",
					first.Confidence, second.Confidence)
			}
		} else {
			if len(m.Shortcuts(cs[0])) != 0 {
				t.Fatal("shortcuts recorded while adaptation disabled")
			}
			if second.Confidence != first.Confidence {
				t.Fatalf("static topology changed answers: %g → %g",
					first.Confidence, second.Confidence)
			}
		}
	}
}

func TestShortcutBudgetBounded(t *testing.T) {
	net := p2p.NewNetwork()
	cs := consumers(12)
	ids := make([]p2p.NodeID, len(cs))
	for i, c := range cs {
		ids[i] = p2p.NodeID(c)
	}
	overlay := p2p.NewRandomOverlay(net, ids, 3, simclock.NewRand(2))
	m := New(overlay, cs, WithDepth(6), WithAdaptiveReferrals(2))
	// Many distant witnesses across many subjects.
	for s := 0; s < 8; s++ {
		for _, c := range cs[6:] {
			_ = m.Submit(fb(c, core.NewServiceID(s), 1))
		}
	}
	for s := 0; s < 8; s++ {
		_, _ = m.Score(core.Query{Perspective: cs[0], Subject: core.NewServiceID(s)})
	}
	if got := len(m.Shortcuts(cs[0])); got > 2 {
		t.Fatalf("shortcut budget exceeded: %d", got)
	}
}
