package vu

import (
	"fmt"
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/p2p"
	"wstrust/internal/qos"
	"wstrust/internal/simclock"
)

func newGrid(t *testing.T) (*p2p.PGrid, []p2p.NodeID) {
	t.Helper()
	net := p2p.NewNetwork()
	ids := make([]p2p.NodeID, 16)
	for i := range ids {
		ids[i] = p2p.NodeID(fmt.Sprintf("reg%02d", i))
	}
	g, err := p2p.BuildPGrid(net, ids, 2, simclock.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	return g, ids
}

// staticMonitor reports fixed trusted values.
func staticMonitor(values map[core.ServiceID]qos.Vector) MonitorFunc {
	return func(id core.ServiceID) (qos.Vector, bool) {
		v, ok := values[id]
		return v, ok
	}
}

func fbMeasured(c core.ConsumerID, s core.ServiceID, overall, rt float64) core.Feedback {
	return core.Feedback{
		Consumer: c, Service: s,
		Observed: qos.Observation{Values: qos.Vector{qos.ResponseTime: rt}, Success: true, At: simclock.Epoch},
		Ratings:  map[core.Facet]float64{core.FacetOverall: overall},
		At:       simclock.Epoch,
	}
}

func TestConstructorValidation(t *testing.T) {
	g, ids := newGrid(t)
	if _, err := New(nil, ids, nil); err == nil {
		t.Fatal("nil grid accepted")
	}
	if _, err := New(g, nil, nil); err == nil {
		t.Fatal("no origins accepted")
	}
}

func TestHonestReportsAggregate(t *testing.T) {
	g, ids := newGrid(t)
	m, err := New(g, ids, staticMonitor(map[core.ServiceID]qos.Vector{
		"s001": {qos.ResponseTime: 100},
	}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		// Honest: measured ≈ monitor's 100ms.
		if err := m.Submit(fbMeasured(core.NewConsumerID(i), "s001", 0.9, 105)); err != nil {
			t.Fatal(err)
		}
	}
	tv, ok := m.Score(core.Query{Subject: "s001"})
	if !ok {
		t.Fatal("unknown")
	}
	if tv.Score < 0.85 {
		t.Fatalf("honest aggregate = %g", tv.Score)
	}
}

func TestDishonestReportsDiscarded(t *testing.T) {
	g, ids := newGrid(t)
	m, err := New(g, ids, staticMonitor(map[core.ServiceID]qos.Vector{
		"s001": {qos.ResponseTime: 100},
	}))
	if err != nil {
		t.Fatal(err)
	}
	// 5 honest reports (rating 0.9, measurements matching the monitor) and
	// 5 badmouthing reports (rating 0.05, fabricated 900ms measurements).
	for i := 0; i < 5; i++ {
		_ = m.Submit(fbMeasured(core.NewConsumerID(i), "s001", 0.9, 100))
		_ = m.Submit(fbMeasured(core.NewConsumerID(100+i), "s001", 0.05, 900))
	}
	tv, _ := m.Score(core.Query{Subject: "s001"})
	if tv.Score < 0.8 {
		t.Fatalf("badmouthing survived monitor comparison: %g", tv.Score)
	}
	// Liars' credibility collapsed.
	if c := m.Credibility(core.NewConsumerID(100)); c >= 0.5 {
		t.Fatalf("liar credibility = %g", c)
	}
	if c := m.Credibility(core.NewConsumerID(0)); c <= 0.5 {
		t.Fatalf("honest credibility = %g", c)
	}
}

func TestLowCredibilityReportersIgnoredEverywhere(t *testing.T) {
	g, ids := newGrid(t)
	m, err := New(g, ids, staticMonitor(map[core.ServiceID]qos.Vector{
		"s-monitored": {qos.ResponseTime: 100},
	}))
	if err != nil {
		t.Fatal(err)
	}
	liar := core.ConsumerID("liar")
	// The liar burns credibility on the monitored service...
	for i := 0; i < 6; i++ {
		_ = m.Submit(fbMeasured(liar, "s-monitored", 0.1, 900))
		if _, ok := m.Score(core.Query{Subject: "s-monitored"}); !ok {
			t.Fatal("score failed")
		}
	}
	if c := m.Credibility(liar); c >= 0.3 {
		t.Fatalf("liar credibility = %g, want < cutoff", c)
	}
	// ...and is then ignored even on an unmonitored service.
	_ = m.Submit(fbMeasured(liar, "s-unmonitored", 0.05, 500))
	_ = m.Submit(fbMeasured("honest", "s-unmonitored", 0.9, 100))
	tv, _ := m.Score(core.Query{Subject: "s-unmonitored"})
	if tv.Score < 0.8 {
		t.Fatalf("cutoff not applied off-monitor: %g", tv.Score)
	}
}

func TestNoMonitorDegradesGracefully(t *testing.T) {
	g, ids := newGrid(t)
	m, err := New(g, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		_ = m.Submit(fbMeasured(core.NewConsumerID(i), "s001", 0.8, 100))
	}
	tv, ok := m.Score(core.Query{Subject: "s001"})
	if !ok || tv.Score < 0.7 {
		t.Fatalf("monitorless aggregate = %+v ok=%v", tv, ok)
	}
}

func TestMessagesCharged(t *testing.T) {
	g, ids := newGrid(t)
	m, _ := New(g, ids, nil)
	before := m.MessageCount()
	_ = m.Submit(fbMeasured("c001", "s001", 0.9, 100))
	if m.MessageCount() <= before {
		t.Fatal("report storage cost no messages")
	}
	mid := m.MessageCount()
	for i := 0; i < 4; i++ {
		_, _ = m.Score(core.Query{Subject: "s001"})
	}
	if m.MessageCount() <= mid {
		t.Fatal("score lookups cost no messages")
	}
}

func TestUnknownInvalidReset(t *testing.T) {
	g, ids := newGrid(t)
	m, _ := New(g, ids, nil)
	if _, ok := m.Score(core.Query{Subject: "s-x"}); ok {
		t.Fatal("unknown subject known")
	}
	if err := m.Submit(core.Feedback{}); err == nil {
		t.Fatal("invalid feedback accepted")
	}
}
