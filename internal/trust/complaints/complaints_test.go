package complaints

import (
	"fmt"
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/p2p"
	"wstrust/internal/simclock"
)

func newGrid(t *testing.T) (*p2p.PGrid, []p2p.NodeID) {
	t.Helper()
	net := p2p.NewNetwork()
	ids := make([]p2p.NodeID, 16)
	for i := range ids {
		ids[i] = p2p.NodeID(fmt.Sprintf("n%02d", i))
	}
	g, err := p2p.BuildPGrid(net, ids, 2, simclock.NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	return g, ids
}

func newMech(t *testing.T) *Mechanism {
	t.Helper()
	g, ids := newGrid(t)
	m, err := New(g, ids)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func fb(c core.ConsumerID, s core.ServiceID, v float64) core.Feedback {
	return core.Feedback{
		Consumer: c, Service: s,
		Ratings: map[core.Facet]float64{core.FacetOverall: v}, At: simclock.Epoch,
	}
}

func TestConstructorValidation(t *testing.T) {
	g, ids := newGrid(t)
	if _, err := New(nil, ids); err == nil {
		t.Fatal("nil grid accepted")
	}
	if _, err := New(g, nil); err == nil {
		t.Fatal("no origins accepted")
	}
}

func TestCleanServiceTrusted(t *testing.T) {
	m := newMech(t)
	for i := 0; i < 10; i++ {
		if err := m.Submit(fb(core.NewConsumerID(i), "s-clean", 0.9)); err != nil {
			t.Fatal(err)
		}
	}
	tv, ok := m.Score(core.Query{Subject: "s-clean"})
	if !ok {
		t.Fatal("unknown")
	}
	if tv.Score != 1 {
		t.Fatalf("complaint-free score = %g, want 1", tv.Score)
	}
}

func TestComplainedServiceDistrusted(t *testing.T) {
	m := newMech(t)
	for i := 0; i < 10; i++ {
		if err := m.Submit(fb(core.NewConsumerID(i), "s-bad", 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	tv, _ := m.Score(core.Query{Subject: "s-bad"})
	if tv.Score > 0.35 {
		t.Fatalf("heavily complained score = %g, want low", tv.Score)
	}
}

func TestVolumeDoesNotPunishCleanServices(t *testing.T) {
	m := newMech(t)
	// Busy service: 50 interactions, 2 complaints. Quiet bad service: 4
	// interactions, 3 complaints.
	for i := 0; i < 48; i++ {
		_ = m.Submit(fb(core.NewConsumerID(i), "s-busy", 0.9))
	}
	for i := 0; i < 2; i++ {
		_ = m.Submit(fb(core.NewConsumerID(100+i), "s-busy", 0.1))
	}
	for i := 0; i < 1; i++ {
		_ = m.Submit(fb(core.NewConsumerID(200), "s-quietbad", 0.9))
	}
	for i := 0; i < 3; i++ {
		_ = m.Submit(fb(core.NewConsumerID(210+i), "s-quietbad", 0.1))
	}
	busy, _ := m.Score(core.Query{Subject: "s-busy"})
	quiet, _ := m.Score(core.Query{Subject: "s-quietbad"})
	if busy.Score <= quiet.Score {
		t.Fatalf("volume punished: busy=%g quietbad=%g", busy.Score, quiet.Score)
	}
}

func TestProlificComplainersDistrusted(t *testing.T) {
	m := newMech(t)
	// liar-peer is both a subject and a prolific complainer.
	for i := 0; i < 4; i++ {
		_ = m.Submit(fb("liar-peer", core.NewServiceID(i), 0.1)) // files 4 complaints
	}
	// Both peers receive one complaint each and have 4 interactions.
	for i := 0; i < 3; i++ {
		_ = m.Submit(fb(core.NewConsumerID(i), "liar-peer", 0.9))
		_ = m.Submit(fb(core.NewConsumerID(i), "quiet-peer", 0.9))
	}
	_ = m.Submit(fb("c-x", "liar-peer", 0.1))
	_ = m.Submit(fb("c-x", "quiet-peer", 0.1))
	liar, _ := m.Score(core.Query{Subject: "liar-peer"})
	quiet, _ := m.Score(core.Query{Subject: "quiet-peer"})
	if liar.Score >= quiet.Score {
		t.Fatalf("complaint-spraying ignored: liar=%g quiet=%g", liar.Score, quiet.Score)
	}
}

func TestMessagesCharged(t *testing.T) {
	m := newMech(t)
	before := m.MessageCount()
	_ = m.Submit(fb("c001", "s001", 0.1)) // files complaints → grid stores
	if m.MessageCount() <= before {
		t.Fatal("complaint storage cost no messages")
	}
	mid := m.MessageCount()
	// Round-robin origins: across several scores at least one lookup must
	// cross nodes and be charged.
	for i := 0; i < 4; i++ {
		_, _ = m.Score(core.Query{Subject: "s001"})
	}
	if m.MessageCount() <= mid {
		t.Fatal("score lookups cost no messages")
	}
	// Satisfied feedback files nothing.
	quietBefore := m.MessageCount()
	_ = m.Submit(fb("c001", "s002", 0.9))
	if m.MessageCount() != quietBefore {
		t.Fatal("satisfied feedback should not touch the grid")
	}
}

func TestUnknownInvalidReset(t *testing.T) {
	m := newMech(t)
	if _, ok := m.Score(core.Query{Subject: "s-x"}); ok {
		t.Fatal("unknown subject known")
	}
	if err := m.Submit(core.Feedback{}); err == nil {
		t.Fatal("invalid feedback accepted")
	}
}
