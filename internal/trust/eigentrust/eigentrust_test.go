package eigentrust

import (
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/p2p"
	"wstrust/internal/simclock"
)

func fb(c core.ConsumerID, s core.ServiceID, v float64) core.Feedback {
	return core.Feedback{
		Consumer: c, Service: s,
		Ratings: map[core.Facet]float64{core.FacetOverall: v}, At: simclock.Epoch,
	}
}

func TestGoodServiceOutranksBad(t *testing.T) {
	m := New()
	for i := 1; i <= 6; i++ {
		c := core.NewConsumerID(i)
		_ = m.Submit(fb(c, "s-good", 1))
		_ = m.Submit(fb(c, "s-bad", 0))
	}
	m.Tick(simclock.Epoch)
	good, ok := m.Score(core.Query{Subject: "s-good"})
	if !ok {
		t.Fatal("unknown")
	}
	bad, ok := m.Score(core.Query{Subject: "s-bad"})
	if !ok {
		t.Fatal("bad service unknown despite ratings")
	}
	if good.Score <= bad.Score {
		t.Fatalf("good=%g bad=%g", good.Score, bad.Score)
	}
	if good.Score != 1 {
		t.Fatalf("best subject should normalize to 1: %g", good.Score)
	}
}

func TestTransitiveTrust(t *testing.T) {
	// c-root trusts s-hub highly; s-hub (acting as a rater) trusts s-leaf.
	// s-leaf earns global trust through the transitive chain even though
	// c-root never rated it.
	m := New(WithPreTrusted("c-root"))
	_ = m.Submit(fb("c-root", "s-hub", 1))
	_ = m.Submit(fb("s-hub", "s-leaf", 1))
	_ = m.Submit(fb("c-other", "s-lonely", 1)) // rated only by an untrusted peer
	m.Tick(simclock.Epoch)
	leaf, _ := m.Score(core.Query{Subject: "s-leaf"})
	lonely, _ := m.Score(core.Query{Subject: "s-lonely"})
	if leaf.Score <= lonely.Score {
		t.Fatalf("transitive trust failed: leaf=%g lonely=%g", leaf.Score, lonely.Score)
	}
}

func TestMaliciousCollectiveContained(t *testing.T) {
	// A clique of liars rate each other highly; honest pre-trusted
	// consumers rate the honest service. The clique must not outrank it.
	m := New(WithPreTrusted("c001", "c002"))
	_ = m.Submit(fb("c001", "s-honest", 1))
	_ = m.Submit(fb("c002", "s-honest", 1))
	for _, pair := range [][2]core.EntityID{
		{"liar-a", "liar-b"}, {"liar-b", "liar-c"}, {"liar-c", "liar-a"},
	} {
		_ = m.Submit(core.Feedback{
			Consumer: pair[0], Service: pair[1],
			Ratings: map[core.Facet]float64{core.FacetOverall: 1}, At: simclock.Epoch,
		})
	}
	m.Tick(simclock.Epoch)
	honest, _ := m.Score(core.Query{Subject: "s-honest"})
	liar, _ := m.Score(core.Query{Subject: "liar-b"})
	if liar.Score >= honest.Score {
		t.Fatalf("malicious collective won: liar=%g honest=%g", liar.Score, honest.Score)
	}
}

func TestNegativeFeedbackErodesLocalTrust(t *testing.T) {
	m := New()
	_ = m.Submit(fb("c001", "s001", 1))
	_ = m.Submit(fb("c001", "s001", 0)) // back to zero local trust
	_ = m.Submit(fb("c001", "s002", 1))
	m.Tick(simclock.Epoch)
	s1, _ := m.Score(core.Query{Subject: "s001"})
	s2, _ := m.Score(core.Query{Subject: "s002"})
	if s1.Score >= s2.Score {
		t.Fatalf("eroded trust persisted: s1=%g s2=%g", s1.Score, s2.Score)
	}
}

func TestLazyRecompute(t *testing.T) {
	m := New()
	_ = m.Submit(fb("c001", "s001", 1))
	if _, ok := m.Score(core.Query{Subject: "s001"}); !ok {
		t.Fatal("lazy recompute failed")
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
}

func TestNetworkCostCharged(t *testing.T) {
	net := p2p.NewNetwork()
	m := New(WithNetwork(net))
	for i := 1; i <= 4; i++ {
		_ = m.Submit(fb(core.NewConsumerID(i), "s001", 1))
	}
	m.Tick(simclock.Epoch)
	if m.MessageCount() == 0 {
		t.Fatal("distributed recompute cost no messages")
	}
	// Without a network the mechanism reports zero cost.
	if New().MessageCount() != 0 {
		t.Fatal("networkless mechanism reported cost")
	}
}
