package complaints_test

import (
	"fmt"
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/p2p"
	"wstrust/internal/simclock"
	"wstrust/internal/trust/complaints"
	"wstrust/internal/trust/trusttest"
)

func newMechanism(t *testing.T) *complaints.Mechanism {
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
	m, err := complaints.New(grid, ids)
	if err != nil {
		t.Fatalf("new mechanism: %v", err)
	}
	return m
}

// TestDifferential proves a long-lived instance answers exactly what a
// fresh one rebuilt from the same feedback prefix answers: replicas are
// written consistently, so the P-Grid tally does not depend on which
// origin asks or how many queries came before.
func TestDifferential(t *testing.T) {
	trusttest.Differential(t, func() core.Mechanism {
		return newMechanism(t)
	}, trusttest.Market(47, 12, 8, 10, 0.6))
}

// TestConcurrentSubmitScoreReset hammers the grid tally from many
// goroutines, exercising Score's unlock-query-relock path against racing
// submits; run with -race.
func TestConcurrentSubmitScoreReset(t *testing.T) {
	m := newMechanism(t)
	trusttest.Hammer(t, m)
	if err := m.Submit(core.Feedback{
		Consumer: core.NewConsumerID(0), Service: core.NewServiceID(0),
		Ratings: map[core.Facet]float64{core.FacetOverall: 0.9},
		At:      simclock.Epoch,
	}); err != nil {
		t.Fatal(err)
	}
	m.Score(core.Query{Subject: core.EntityID(core.NewServiceID(0)), Facet: core.FacetOverall})
}
