package yusingh_test

import (
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/p2p"
	"wstrust/internal/simclock"
	"wstrust/internal/trust/trusttest"
	"wstrust/internal/trust/yusingh"
)

const nAgents = 12

func newMechanism() *yusingh.Mechanism {
	net := p2p.NewNetwork()
	consumers := make([]core.ConsumerID, nAgents)
	nodeIDs := make([]p2p.NodeID, nAgents)
	for i := range consumers {
		consumers[i] = core.NewConsumerID(i)
		nodeIDs[i] = p2p.NodeID(consumers[i])
	}
	ov := p2p.NewRandomOverlay(net, nodeIDs, 3, simclock.NewRand(101))
	return yusingh.New(ov, consumers)
}

// globalOnly strips perspective queries: witness walks route referrals
// over the live overlay (charging messages, creating agents), so a warm
// instance that has answered more queries legitimately diverges from a
// cold one. Only the global Dempster-Shafer fuse is memoized, and only it
// must be bit-identical.
func globalOnly(s trusttest.Script) trusttest.Script {
	qs := s.Queries[:0:0]
	for _, q := range s.Queries {
		if q.Perspective == "" {
			qs = append(qs, q)
		}
	}
	s.Queries = qs
	return s
}

// TestDifferential proves the global-fuse memo and agent-roster cache
// are pure memoization over the local evidence masses.
func TestDifferential(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		trusttest.Differential(t, func() core.Mechanism {
			return newMechanism()
		}, globalOnly(trusttest.Market(41, nAgents, 10, 12, 0.6)))
	})
}

// TestConcurrentSubmitScoreReset hammers the fuse memo alongside live
// witness walks from many goroutines; run with -race.
func TestConcurrentSubmitScoreReset(t *testing.T) {
	m := newMechanism()
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
