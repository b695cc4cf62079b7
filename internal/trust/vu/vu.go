// Package vu implements the QoS-based service selection and ranking with
// trust and reputation management of Vu, Hauswirth & Aberer [29] — the
// survey's only decentralized trust mechanism designed for web services.
// Dedicated QoS registries are organized as P-Grid peers; consumers report
// their measured QoS to the registry shard responsible for the service;
// and dishonest feedback is detected by comparing consumer reports against
// the QoS data of dedicated, trusted monitoring agents: reports that
// deviate beyond a tolerance are discarded and their reporters lose
// credibility for future aggregation.
//
// The paper's own verdict on this design — "much more complicated than the
// centralized trust and reputation methods and involves a lot of
// communication and calculation because of the use of the complicated
// P-Grid structure" — is exactly what experiments F4/C6 measure via the
// grid's message accounting.
package vu

import (
	"fmt"
	"math"
	"sync"

	"wstrust/internal/core"
	"wstrust/internal/p2p"
	"wstrust/internal/qos"
)

// report is the record stored on the QoS registry shard.
type report struct {
	Reporter core.ConsumerID
	Overall  float64
	Measured qos.Vector
}

// MonitorFunc supplies the trusted monitoring agents' QoS view of a
// service; ok is false when the monitors have no data for it.
type MonitorFunc func(core.ServiceID) (qos.Vector, bool)

const (
	// tolerance is the maximum relative deviation between a consumer
	// report and the monitor view before the report counts as dishonest.
	tolerance = 0.5
	// credibilityCutoff is the reporter credibility below which reports
	// are discarded outright.
	credibilityCutoff = 0.3
)

// Mechanism is the Vu et al. engine. Safe for concurrent use.
type Mechanism struct {
	grid    *p2p.PGrid
	origins []p2p.NodeID
	monitor MonitorFunc

	mu           sync.Mutex
	originIdx    int
	interactions map[core.EntityID]float64
	// credibility per reporter, learned from monitor comparisons.
	credHit, credMiss map[core.ConsumerID]float64
	// Graceful degradation under faults: every submitted report is also
	// tallied locally (direct experience), and the last grid-backed answer
	// is kept per subject. Score falls back to these when the shard is
	// unreachable. In a fault-free run the fallbacks never fire.
	localSum, localN map[core.EntityID]float64         // guarded by mu
	lastKnown        map[core.EntityID]core.TrustValue // guarded by mu
	lostStores       int64                             // guarded by mu
}

var (
	_ core.Mechanism    = (*Mechanism)(nil)
	_ core.CostReporter = (*Mechanism)(nil)
)

// New builds the mechanism over a P-Grid. monitor may be nil — detection
// then degrades to credibility-only weighting, which is the paper's
// scenario of services not covered by monitoring agents.
func New(grid *p2p.PGrid, origins []p2p.NodeID, monitor MonitorFunc) (*Mechanism, error) {
	if grid == nil {
		return nil, fmt.Errorf("vu: nil grid")
	}
	if len(origins) == 0 {
		return nil, fmt.Errorf("vu: no origin nodes")
	}
	m := &Mechanism{
		grid:         grid,
		origins:      append([]p2p.NodeID(nil), origins...),
		monitor:      monitor,
		interactions: map[core.EntityID]float64{},
		credHit:      map[core.ConsumerID]float64{},
		credMiss:     map[core.ConsumerID]float64{},
		localSum:     map[core.EntityID]float64{},
		localN:       map[core.EntityID]float64{},
		lastKnown:    map[core.EntityID]core.TrustValue{},
	}
	return m, nil
}

// Name implements core.Mechanism.
func (m *Mechanism) Name() string { return "vu-qos" }

func key(id core.EntityID) string { return "vuq:" + string(id) }

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

// Submit implements core.Mechanism: the report is stored on the registry
// shard responsible for the service.
func (m *Mechanism) Submit(fb core.Feedback) error {
	if err := fb.Validate(); err != nil {
		return fmt.Errorf("vu: %w", err)
	}
	rep := report{
		Reporter: fb.Consumer,
		Overall:  fb.Overall(),
		Measured: fb.Observed.Values.Clone(),
	}
	m.mu.Lock()
	m.interactions[fb.Service]++
	m.localSum[fb.Service] += rep.Overall
	m.localN[fb.Service]++
	m.mu.Unlock()
	// A lost store is degradation, not failure: the observation survives
	// in the local tallies above; only the shared shard copy is gone.
	if _, err := m.grid.Store(m.nextOrigin(), key(fb.Service), rep); err != nil {
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

// honest compares a report against the monitor view; the boolean is false
// when no comparison was possible.
func (m *Mechanism) honest(rep report, trusted qos.Vector) (bool, bool) {
	compared := false
	for metric, trustedVal := range trusted {
		got, ok := rep.Measured[metric]
		if !ok {
			continue
		}
		compared = true
		scale := math.Max(math.Abs(trustedVal), 1e-9)
		if math.Abs(got-trustedVal)/scale > tolerance {
			return false, true
		}
	}
	return true, compared
}

// Score implements core.Mechanism: fetch the shard's reports (real grid
// routing), run dishonesty detection against the monitors, update reporter
// credibilities, and average the surviving reports weighted by
// credibility.
func (m *Mechanism) Score(q core.Query) (core.TrustValue, bool) {
	m.mu.Lock()
	known := m.interactions[q.Subject] > 0
	m.mu.Unlock()
	if !known {
		return core.TrustValue{Score: 0.5, Confidence: 0}, false
	}
	vals, err := m.grid.Lookup(m.nextOrigin(), key(q.Subject))
	if err != nil {
		// The shard is unreachable: degrade to the last grid-backed
		// answer, or to this consumer's own report average (direct
		// experience), rather than refusing to select at all.
		m.mu.Lock()
		defer m.mu.Unlock()
		if last, ok := m.lastKnown[q.Subject]; ok {
			last.Confidence /= 2
			return last, true
		}
		if n := m.localN[q.Subject]; n > 0 {
			return core.TrustValue{
				Score:      math.Max(0, math.Min(1, m.localSum[q.Subject]/n)),
				Confidence: n / (n + 5) / 2,
			}, true
		}
		return core.TrustValue{Score: 0.5, Confidence: 0}, false
	}
	var trusted qos.Vector
	hasTrusted := false
	if m.monitor != nil {
		trusted, hasTrusted = m.monitor(q.Subject)
	}
	var num, den float64
	kept := 0
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, v := range vals {
		rep, ok := v.(report)
		if !ok {
			continue
		}
		if hasTrusted {
			honest, compared := m.honest(rep, trusted)
			if compared {
				if honest {
					m.credHit[rep.Reporter]++
				} else {
					m.credMiss[rep.Reporter]++
					continue // discard the dishonest report outright
				}
			}
		}
		cred := (m.credHit[rep.Reporter] + 1) / (m.credHit[rep.Reporter] + m.credMiss[rep.Reporter] + 2)
		if cred < credibilityCutoff {
			continue
		}
		num += cred * rep.Overall
		den += cred
		kept++
	}
	if den == 0 {
		return core.TrustValue{Score: 0.5, Confidence: 0}, true
	}
	n := float64(kept)
	tv := core.TrustValue{
		Score:      math.Max(0, math.Min(1, num/den)),
		Confidence: n / (n + 5),
	}
	m.lastKnown[q.Subject] = tv
	return tv, true
}

// Credibility exposes a reporter's learned credibility.
func (m *Mechanism) Credibility(r core.ConsumerID) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return (m.credHit[r] + 1) / (m.credHit[r] + m.credMiss[r] + 2)
}

// MessageCount implements core.CostReporter.
func (m *Mechanism) MessageCount() int64 {
	return m.grid.Network().MessageCount()
}
