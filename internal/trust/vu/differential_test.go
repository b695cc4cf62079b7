package vu_test

import (
	"fmt"
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/p2p"
	"wstrust/internal/simclock"
	"wstrust/internal/trust/trusttest"
	"wstrust/internal/trust/vu"
)

func newMechanism(t *testing.T) *vu.Mechanism {
	t.Helper()
	net := p2p.NewNetwork()
	ids := make([]p2p.NodeID, 16)
	for i := range ids {
		ids[i] = p2p.NodeID(fmt.Sprintf("peer%03d", i))
	}
	// Fixed seed: every call builds a byte-identical grid topology, so
	// warm and cold instances route lookups the same way.
	grid, err := p2p.BuildPGrid(net, ids, 3, simclock.NewRand(7))
	if err != nil {
		t.Fatalf("build grid: %v", err)
	}
	// monitor == nil on purpose: with monitors attached, Score updates
	// reporter credibilities — deliberate state the warm instance's
	// interleaved queries would accumulate and a cold rebuild would not.
	// Without monitors, Score is a pure read of consistently-replicated
	// shard reports, which is exactly what must replay bit-for-bit.
	m, err := vu.New(grid, ids, nil)
	if err != nil {
		t.Fatalf("new mechanism: %v", err)
	}
	return m
}

// TestDifferential replays a monitored-QoS market (reports carry Observed
// vectors) against cold rebuilds.
func TestDifferential(t *testing.T) {
	trusttest.Differential(t, func() core.Mechanism {
		return newMechanism(t)
	}, trusttest.QoSMarket(71, 12, 8, 10, 0.6))
}

// TestConcurrentSubmitScoreReset hammers grid stores and lookups from
// many goroutines; run with -race.
func TestConcurrentSubmitScoreReset(t *testing.T) {
	m := newMechanism(t)
	trusttest.Hammer(t, m)
	if err := m.Submit(core.Feedback{
		Consumer: core.NewConsumerID(0), Service: core.NewServiceID(0),
		Ratings: map[core.Facet]float64{core.FacetOverall: 1},
		At:      simclock.Epoch,
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Score(core.Query{Subject: core.EntityID(core.NewServiceID(0)), Facet: core.FacetOverall}); !ok {
		t.Fatal("no score after post-hammer submit")
	}
}
