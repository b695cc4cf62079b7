// Package xrep implements the reputation-polling approach of Damiani et
// al. [4] (the XRep protocol for P2P networks, decentralized / resource /
// global in the survey's typology): before using a resource, a peer polls
// the network; peers with direct experience respond with votes; the
// poller tallies the votes, weighting each voter by a locally maintained
// credibility that is updated afterwards — voters whose advice matched the
// actual outcome gain credibility, the rest lose it.
package xrep

import (
	"fmt"
	"math"
	"sync"

	"wstrust/internal/core"
	"wstrust/internal/p2p"
)

// vote is a poll response.
type vote struct {
	Voter p2p.NodeID
	Good  bool
}

// ttl is the poll flood depth.
const ttl = 3

// localExperience is a node's own verdicts per resource.
type localExperience struct {
	mu   sync.Mutex
	good map[core.EntityID]float64
	bad  map[core.EntityID]float64
}

func (l *localExperience) verdict(id core.EntityID) (goodVotes bool, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	g, b := l.good[id], l.bad[id]
	if g+b == 0 {
		return false, false
	}
	return g >= b, true
}

// credibility is a poller's local voter-credibility table.
type credibility struct {
	hit, miss map[p2p.NodeID]float64
}

func (c *credibility) weight(v p2p.NodeID) float64 {
	return (c.hit[v] + 1) / (c.hit[v] + c.miss[v] + 2)
}

// Mechanism is the XRep engine. Safe for concurrent use.
type Mechanism struct {
	overlay *p2p.Overlay

	mu     sync.Mutex
	local  map[core.ConsumerID]*localExperience
	cred   map[core.ConsumerID]*credibility
	counts map[core.EntityID]float64
	// lastPoll remembers who voted what, so a later Confirm can settle
	// credibility.
	lastPoll map[pollKey][]vote
	// tallyMemo caches the global (no-poll, local-math-only) tally per
	// subject; perspective polls always travel the overlay uncached.
	tallyMemo core.KeyedMemo[core.EntityID, core.TrustValue] // guarded by mu
}

type pollKey struct {
	poller  core.ConsumerID
	subject core.EntityID
}

var (
	_ core.Mechanism    = (*Mechanism)(nil)
	_ core.CostReporter = (*Mechanism)(nil)
)

// New builds the mechanism over an overlay, joining one node per consumer.
func New(overlay *p2p.Overlay, consumers []core.ConsumerID) *Mechanism {
	if overlay == nil {
		panic("xrep: nil overlay")
	}
	m := &Mechanism{
		overlay:  overlay,
		local:    map[core.ConsumerID]*localExperience{},
		cred:     map[core.ConsumerID]*credibility{},
		counts:   map[core.EntityID]float64{},
		lastPoll: map[pollKey][]vote{},
	}
	for _, c := range consumers {
		m.ensureNode(c)
	}
	return m
}

// Name implements core.Mechanism.
func (m *Mechanism) Name() string { return "xrep" }

func (m *Mechanism) ensureNode(c core.ConsumerID) *localExperience {
	m.mu.Lock()
	defer m.mu.Unlock()
	le, ok := m.local[c]
	if !ok {
		le = &localExperience{good: map[core.EntityID]float64{}, bad: map[core.EntityID]float64{}}
		m.local[c] = le
		m.cred[c] = &credibility{hit: map[p2p.NodeID]float64{}, miss: map[p2p.NodeID]float64{}}
		exp := le
		m.overlay.Network().Join(p2p.NodeID(c), func(_ p2p.NodeID, kind string, payload any) any {
			if kind != "xr.poll" {
				return nil
			}
			subject := payload.(core.EntityID)
			good, ok := exp.verdict(subject)
			if !ok {
				return nil
			}
			return good
		})
	}
	return le
}

// Submit implements core.Mechanism: experience lands at the consumer's own
// node and settles any outstanding poll for that (consumer, subject) —
// voters who agreed with the actual outcome gain credibility.
func (m *Mechanism) Submit(fb core.Feedback) error {
	if err := fb.Validate(); err != nil {
		return fmt.Errorf("xrep: %w", err)
	}
	le := m.ensureNode(fb.Consumer)
	v := fb.Overall()
	wasGood := v > 0.5
	le.mu.Lock()
	if wasGood {
		le.good[fb.Service]++
	} else {
		le.bad[fb.Service]++
	}
	le.mu.Unlock()

	m.mu.Lock()
	defer m.mu.Unlock()
	m.counts[fb.Service]++
	m.tallyMemo.Drop(fb.Service)
	key := pollKey{fb.Consumer, fb.Service}
	if votes, ok := m.lastPoll[key]; ok {
		cr := m.cred[fb.Consumer]
		for _, vt := range votes {
			if vt.Good == wasGood {
				cr.hit[vt.Voter]++
			} else {
				cr.miss[vt.Voter]++
			}
		}
		delete(m.lastPoll, key)
	}
	return nil
}

// Score implements core.Mechanism: a perspective triggers a real poll over
// the overlay (messages charged); the tally is the credibility-weighted
// positive-vote fraction. Without a perspective the mechanism tallies all
// local experiences unweighted (the bird's-eye view).
func (m *Mechanism) Score(q core.Query) (core.TrustValue, bool) {
	m.mu.Lock()
	known := m.counts[q.Subject] > 0
	m.mu.Unlock()
	if !known {
		return core.TrustValue{Score: 0.5, Confidence: 0}, false
	}
	if q.Perspective == "" {
		return m.globalTally(q.Subject), true
	}
	m.ensureNode(q.Perspective)

	var votes []vote
	m.overlay.Flood(p2p.NodeID(q.Perspective), ttl, "xr.poll", q.Subject,
		func(peer p2p.NodeID, reply any) {
			if good, ok := reply.(bool); ok {
				votes = append(votes, vote{Voter: peer, Good: good})
			}
		})

	m.mu.Lock()
	defer m.mu.Unlock()
	m.lastPoll[pollKey{q.Perspective, q.Subject}] = votes

	// Own experience votes too, at full weight.
	var num, den float64
	if good, ok := m.local[q.Perspective].verdict(q.Subject); ok {
		den += 1
		if good {
			num += 1
		}
	}
	cr := m.cred[q.Perspective]
	for _, vt := range votes {
		w := cr.weight(vt.Voter)
		den += w
		if vt.Good {
			num += w
		}
	}
	if den == 0 {
		return core.TrustValue{Score: 0.5, Confidence: 0}, true
	}
	conf := den / (den + 3)
	return core.TrustValue{Score: math.Max(0, math.Min(1, num/den)), Confidence: conf}, true
}

func (m *Mechanism) globalTally(subject core.EntityID) core.TrustValue {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tallyMemo.Get(nil, subject, func() core.TrustValue { return m.tallyLocked(subject) })
}

// tallyLocked counts verdicts; the per-node contributions are exact
// integer increments, so map iteration order cannot change the result.
func (m *Mechanism) tallyLocked(subject core.EntityID) core.TrustValue {
	var good, total float64
	for _, le := range m.local {
		le.mu.Lock()
		g, b := le.good[subject], le.bad[subject]
		le.mu.Unlock()
		if g+b == 0 {
			continue
		}
		total++
		if g >= b {
			good++
		}
	}
	if total == 0 {
		return core.TrustValue{Score: 0.5, Confidence: 0}
	}
	return core.TrustValue{Score: good / total, Confidence: total / (total + 3)}
}

// CredibilityOf exposes the poller's learned credibility for a voter.
func (m *Mechanism) CredibilityOf(poller core.ConsumerID, voter core.ConsumerID) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	cr, ok := m.cred[poller]
	if !ok {
		return 0.5
	}
	return cr.weight(p2p.NodeID(voter))
}

// MessageCount implements core.CostReporter.
func (m *Mechanism) MessageCount() int64 {
	return m.overlay.Network().MessageCount()
}
