package xrep_test

import (
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/p2p"
	"wstrust/internal/simclock"
	"wstrust/internal/trust/trusttest"
	"wstrust/internal/trust/xrep"
)

const nPeers = 12

func newMechanism() *xrep.Mechanism {
	net := p2p.NewNetwork()
	consumers := make([]core.ConsumerID, nPeers)
	nodeIDs := make([]p2p.NodeID, nPeers)
	for i := range consumers {
		consumers[i] = core.NewConsumerID(i)
		nodeIDs[i] = p2p.NodeID(consumers[i])
	}
	ov := p2p.NewRandomOverlay(net, nodeIDs, 3, simclock.NewRand(103))
	return xrep.New(ov, consumers)
}

// globalOnly strips perspective queries: polling a perspective floods
// vote requests over the overlay and records lastPoll, so a warm
// instance that has polled more often legitimately diverges from a cold
// one. Only the global tally is memoized, and only it must match.
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

// TestDifferential proves the global vote tally memo is pure
// memoization: its integer plus/minus counts cannot depend on map
// iteration order, so cached and recomputed tallies are bit-identical.
func TestDifferential(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		trusttest.Differential(t, func() core.Mechanism {
			return newMechanism()
		}, globalOnly(trusttest.Market(43, nPeers, 10, 12, 0.6)))
	})
}

// TestConcurrentSubmitScoreReset hammers the tally memo alongside live
// polls from many goroutines; run with -race.
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
