// Package complaints implements the trust management of Aberer &
// Despotovic [1], the system P-Grid was built for: there are no positive
// ratings at all — peers file complaints after unsatisfactory interactions,
// complaint records are stored decentrally on the P-Grid trie under the
// subject's key, and an entity is trusted unless the complaints it has
// received (weighted by the complaints it has itself filed, since liars
// complain prolifically) are abnormally high.
//
// Every Submit and Score performs real P-Grid routing, so the message
// accounting of experiments F4/C6 reflects the structure's cost — the very
// property the survey calls "a lot of communication and calculation".
package complaints

import (
	"fmt"
	"math"
	"sync"

	"wstrust/internal/core"
	"wstrust/internal/p2p"
)

// complaint is the record stored on the grid.
type complaint struct {
	Filer   core.ConsumerID
	Subject core.EntityID
}

// complaintThreshold is the dissatisfaction bound below which a feedback
// files a complaint.
const complaintThreshold = 0.4

// Mechanism is the complaint-based trust engine. Safe for concurrent use.
//
// Score does not memoize: every query performs the P-Grid lookups, so
// message counts and the origin round-robin reflect the full traffic the
// communication-cost experiments (F4, C6) measure.
type Mechanism struct {
	grid    *p2p.PGrid
	origins []p2p.NodeID

	mu           sync.Mutex
	interactions map[core.EntityID]float64
	originIdx    int
	// Graceful degradation under faults: complaints this instance filed
	// are tallied locally too (direct experience, free of network cost),
	// and the last successfully fetched grid counts are kept per subject.
	// When the grid is unreachable, Score answers from these instead of
	// refusing. In a fault-free run the fallbacks never fire.
	localReceived map[core.EntityID]float64    // guarded by mu
	localFiled    map[core.ConsumerID]float64  // guarded by mu
	lastKnown     map[core.EntityID][2]float64 // guarded by mu; {cr, cf}
	lostStores    int64                        // guarded by mu
}

var (
	_ core.Mechanism    = (*Mechanism)(nil)
	_ core.CostReporter = (*Mechanism)(nil)
)

// New builds the mechanism over an existing P-Grid. origins are the nodes
// submissions and queries are issued from (round-robin), normally the
// consumers' own peers.
func New(grid *p2p.PGrid, origins []p2p.NodeID) (*Mechanism, error) {
	if grid == nil {
		return nil, fmt.Errorf("complaints: nil grid")
	}
	if len(origins) == 0 {
		return nil, fmt.Errorf("complaints: no origin nodes")
	}
	m := &Mechanism{
		grid:          grid,
		origins:       append([]p2p.NodeID(nil), origins...),
		interactions:  map[core.EntityID]float64{},
		localReceived: map[core.EntityID]float64{},
		localFiled:    map[core.ConsumerID]float64{},
		lastKnown:     map[core.EntityID][2]float64{},
	}
	return m, nil
}

// Name implements core.Mechanism.
func (m *Mechanism) Name() string { return "complaints" }

func receivedKey(id core.EntityID) string { return "cr:" + string(id) }
func filedKey(id core.ConsumerID) string  { return "cf:" + string(id) }

// nextOrigin returns the next live origin peer (round-robin). Departed
// peers issue no queries; if every origin has left, the last candidate is
// returned and the operation will fail at the network layer.
func (m *Mechanism) nextOrigin() p2p.NodeID {
	m.mu.Lock()
	defer m.mu.Unlock()
	net := m.grid.Network()
	var o p2p.NodeID
	for tries := 0; tries < len(m.origins); tries++ {
		o = m.origins[m.originIdx%len(m.origins)]
		m.originIdx++
		if net.Alive(o) {
			return o
		}
	}
	return o
}

// Submit implements core.Mechanism: dissatisfaction files a complaint on
// the grid; satisfaction files nothing — exactly the asymmetry of [1].
func (m *Mechanism) Submit(fb core.Feedback) error {
	if err := fb.Validate(); err != nil {
		return fmt.Errorf("complaints: %w", err)
	}
	m.mu.Lock()
	m.interactions[fb.Service]++
	m.mu.Unlock()
	if fb.Overall() >= complaintThreshold {
		return nil
	}
	c := complaint{Filer: fb.Consumer, Subject: fb.Service}
	m.mu.Lock()
	m.localReceived[fb.Service]++
	m.localFiled[fb.Consumer]++
	m.mu.Unlock()
	origin := m.nextOrigin()
	// A lost store is degradation, not failure: the complaint survives in
	// the local tallies above, the grid write is simply gone (at-most-once
	// under message loss). Callers keep running; LostStores reports the
	// damage.
	lost := false
	if _, err := m.grid.Store(origin, receivedKey(fb.Service), c); err != nil {
		lost = true
	}
	if _, err := m.grid.Store(origin, filedKey(fb.Consumer), c); err != nil {
		lost = true
	}
	if lost {
		m.mu.Lock()
		m.lostStores++
		m.mu.Unlock()
	}
	return nil
}

// LostStores reports how many Submits failed to land on the grid and fell
// back to local-only accounting.
func (m *Mechanism) LostStores() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lostStores
}

// counts retrieves complaint tallies from the grid.
func (m *Mechanism) counts(origin p2p.NodeID, subject core.EntityID) (received, filed float64, err error) {
	recs, err := m.grid.Lookup(origin, receivedKey(subject))
	if err != nil {
		return 0, 0, err
	}
	fils, err := m.grid.Lookup(origin, filedKey(subject))
	if err != nil {
		return 0, 0, err
	}
	return dedupCount(recs), dedupCount(fils), nil
}

// dedupCount counts grid records, collapsing replica duplicates of the
// same (filer, subject, index) — replicas hold identical appends, so a
// single Store that reached k replicas must count once. Our Store writes
// each record to every replica of ONE leaf, and Lookup reads one replica,
// so records are already unique; the function simply counts.
func dedupCount(vals []any) float64 {
	return float64(len(vals))
}

// Score implements core.Mechanism. Following [1], the trust metric is
// T(s) = cr(s) · (1 + cf(s)): an entity with many received complaints, or
// one that also sprays complaints, is distrusted. The score maps T through
// 1/(1+T/I) where I is the subject's interaction count, so busy-but-clean
// services are not punished for volume.
func (m *Mechanism) Score(q core.Query) (core.TrustValue, bool) {
	m.mu.Lock()
	inter := m.interactions[q.Subject]
	m.mu.Unlock()
	if inter == 0 {
		return core.TrustValue{Score: 0.5, Confidence: 0}, false
	}
	origin := m.nextOrigin()
	cr, cf, err := m.counts(origin, q.Subject)
	degraded := false
	if err != nil {
		// The grid is partitioned/unreachable: degrade to the last counts
		// a lookup did fetch, or failing that to this instance's own
		// complaint tallies (direct experience). Only with neither is
		// there truly no basis for an answer.
		m.mu.Lock()
		if last, ok := m.lastKnown[q.Subject]; ok {
			cr, cf = last[0], last[1]
		} else {
			cr = m.localReceived[q.Subject]
			cf = m.localFiled[core.ConsumerID(q.Subject)]
		}
		m.mu.Unlock()
		degraded = true
	} else {
		m.mu.Lock()
		m.lastKnown[q.Subject] = [2]float64{cr, cf}
		m.mu.Unlock()
	}
	t := cr * (1 + cf)
	score := 1 / (1 + t/math.Max(1, inter/2))
	conf := inter / (inter + 5)
	if degraded {
		conf /= 2 // a stale or local-only basis deserves less confidence
	}
	return core.TrustValue{Score: score, Confidence: conf}, true
}

// MessageCount implements core.CostReporter: the traffic the grid's
// network has carried.
func (m *Mechanism) MessageCount() int64 {
	return m.grid.Network().MessageCount()
}
