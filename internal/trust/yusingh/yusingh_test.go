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

func newMech(t *testing.T, n int) (*Mechanism, []core.ConsumerID) {
	t.Helper()
	net := p2p.NewNetwork()
	cs := consumers(n)
	ids := make([]p2p.NodeID, n)
	for i, c := range cs {
		ids[i] = p2p.NodeID(c)
		net.Join(ids[i], nil) // placeholder; New re-joins with real handlers
	}
	overlay := p2p.NewRandomOverlay(net, ids, 4, simclock.NewRand(5))
	return New(overlay, cs), cs
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
	m, cs := newMech(t, 8)
	// c1 has the 10 direct bad experiences that suffice; everyone else
	// says good.
	for i := 0; i < 10; i++ {
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

// ring returns a mechanism over a 10-agent ring, where c00(k+1) is k
// hops from c001 in either direction up to 5.
func ring() (*Mechanism, []core.ConsumerID) {
	net := p2p.NewNetwork()
	cs := consumers(10)
	ids := make([]p2p.NodeID, len(cs))
	for i, c := range cs {
		ids[i] = p2p.NodeID(c)
	}
	overlay := p2p.NewRandomOverlay(net, ids, 2, simclock.NewRand(1)) // pure ring
	return New(overlay, cs), cs
}

func TestReferralDepthBoundsReach(t *testing.T) {
	// The referral walk goes 3 hops: a witness 3 hops away on the ring is
	// reached, one 5 hops away is not.
	m, cs := ring()
	for i := 0; i < 5; i++ {
		_ = m.Submit(fb(cs[5], "s-far", 1))
		_ = m.Submit(fb(cs[3], "s-reach", 1))
	}
	tv, ok := m.Score(core.Query{Perspective: cs[0], Subject: "s-far"})
	if !ok {
		t.Fatal("subject should be known (counts global)")
	}
	if tv.Confidence != 0 {
		t.Fatalf("a 5-hop witness was reached: %+v", tv)
	}
	tv2, _ := m.Score(core.Query{Perspective: cs[0], Subject: "s-reach"})
	if tv2.Confidence <= 0 || tv2.Score <= 0.5 {
		t.Fatalf("3-hop referral failed: %+v", tv2)
	}
}

func TestHopDiscountWeakensFarTestimony(t *testing.T) {
	m, cs := ring()
	for i := 0; i < 10; i++ {
		_ = m.Submit(fb(cs[3], "s-far", 1))  // 3 hops away
		_ = m.Submit(fb(cs[1], "s-near", 1)) // direct neighbour
	}
	far, _ := m.Score(core.Query{Perspective: cs[0], Subject: "s-far"})
	near, _ := m.Score(core.Query{Perspective: cs[0], Subject: "s-near"})
	if far.Confidence <= 0 || far.Confidence >= near.Confidence {
		t.Fatalf("hop discount missing: far conf %g, near conf %g", far.Confidence, near.Confidence)
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
