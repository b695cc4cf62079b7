package xrep

import (
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/p2p"
	"wstrust/internal/simclock"
)

func newMech(t *testing.T, n int) (*Mechanism, []core.ConsumerID) {
	t.Helper()
	net := p2p.NewNetwork()
	cs := make([]core.ConsumerID, n)
	ids := make([]p2p.NodeID, n)
	for i := range cs {
		cs[i] = core.NewConsumerID(i + 1)
		ids[i] = p2p.NodeID(cs[i])
	}
	overlay := p2p.NewRandomOverlay(net, ids, 4, simclock.NewRand(7))
	return New(overlay, cs), cs
}

func fb(c core.ConsumerID, s core.ServiceID, v float64) core.Feedback {
	return core.Feedback{
		Consumer: c, Service: s,
		Ratings: map[core.Facet]float64{core.FacetOverall: v}, At: simclock.Epoch,
	}
}

func TestPollGathersVotes(t *testing.T) {
	m, cs := newMech(t, 10)
	for _, c := range cs[1:] {
		_ = m.Submit(fb(c, "s-good", 1))
	}
	before := m.MessageCount()
	tv, ok := m.Score(core.Query{Perspective: cs[0], Subject: "s-good"})
	if !ok {
		t.Fatal("unknown")
	}
	if tv.Score <= 0.8 {
		t.Fatalf("unanimous positive poll = %g", tv.Score)
	}
	if m.MessageCount() <= before {
		t.Fatal("poll cost no messages")
	}
}

func TestPollMixedVotes(t *testing.T) {
	m, cs := newMech(t, 10)
	for i, c := range cs[1:] {
		v := 1.0
		if i%2 == 0 {
			v = 0.0
		}
		_ = m.Submit(fb(c, "s-mixed", v))
	}
	tv, _ := m.Score(core.Query{Perspective: cs[0], Subject: "s-mixed"})
	if tv.Score < 0.3 || tv.Score > 0.7 {
		t.Fatalf("mixed poll = %g, want middling", tv.Score)
	}
}

func TestCredibilityLearning(t *testing.T) {
	m, cs := newMech(t, 6)
	poller, truthful, liar := cs[0], cs[1], cs[2]
	// truthful says good, liar says bad, about a genuinely good service.
	_ = m.Submit(fb(truthful, "s001", 1))
	_ = m.Submit(fb(liar, "s001", 0))
	if _, ok := m.Score(core.Query{Perspective: poller, Subject: "s001"}); !ok {
		t.Fatal("poll failed")
	}
	// The poller then uses the service and finds it good → confirm.
	_ = m.Submit(fb(poller, "s001", 1))
	if ct, cl := m.CredibilityOf(poller, truthful), m.CredibilityOf(poller, liar); ct <= cl {
		t.Fatalf("credibility not learned: truthful=%g liar=%g", ct, cl)
	}
	// Next poll on a different service: the liar's vote weighs less.
	_ = m.Submit(fb(truthful, "s002", 1))
	_ = m.Submit(fb(liar, "s002", 0))
	tv, _ := m.Score(core.Query{Perspective: poller, Subject: "s002"})
	if tv.Score <= 0.5 {
		t.Fatalf("learned credibility not applied: %g", tv.Score)
	}
}

func TestOwnExperienceVotes(t *testing.T) {
	m, cs := newMech(t, 4)
	_ = m.Submit(fb(cs[0], "s001", 0)) // own bad experience
	tv, _ := m.Score(core.Query{Perspective: cs[0], Subject: "s001"})
	if tv.Score >= 0.5 {
		t.Fatalf("own vote ignored: %g", tv.Score)
	}
}

func TestGlobalTally(t *testing.T) {
	m, cs := newMech(t, 6)
	for _, c := range cs {
		_ = m.Submit(fb(c, "s001", 1))
	}
	tv, ok := m.Score(core.Query{Subject: "s001"})
	if !ok || tv.Score != 1 {
		t.Fatalf("global tally = %+v ok=%v", tv, ok)
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

func TestTTLLimitsPollReach(t *testing.T) {
	// Ring overlay: the TTL-3 poll reaches peers up to 3 hops away.
	net := p2p.NewNetwork()
	cs := make([]core.ConsumerID, 8)
	ids := make([]p2p.NodeID, 8)
	for i := range cs {
		cs[i] = core.NewConsumerID(i + 1)
		ids[i] = p2p.NodeID(cs[i])
	}
	overlay := p2p.NewRandomOverlay(net, ids, 2, simclock.NewRand(1))
	m := New(overlay, cs)
	// Far witness (4 hops) has experience.
	_ = m.Submit(fb(cs[4], "s-far", 1))
	tv, ok := m.Score(core.Query{Perspective: cs[0], Subject: "s-far"})
	if !ok {
		t.Fatal("known subject reported unknown")
	}
	if tv.Confidence != 0 {
		t.Fatalf("TTL-3 poll reached a 4-hop witness: %+v", tv)
	}
	_ = m.Submit(fb(cs[3], "s-reach", 1))
	if tv, _ := m.Score(core.Query{Perspective: cs[0], Subject: "s-reach"}); tv.Confidence == 0 {
		t.Fatalf("TTL-3 poll missed a 3-hop witness: %+v", tv)
	}
}
