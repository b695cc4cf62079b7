// Package yusingh implements the distributed reputation management of Yu &
// Singh [35,36] with the referral-network service location of Yolum &
// Singh [34]: every consumer runs an agent on an unstructured overlay;
// trust in a provider is a Dempster–Shafer belief function over
// {trustworthy, untrustworthy} built from the agent's own interactions;
// when local evidence is insufficient the agent queries its neighbours,
// who either testify from direct experience or refer the query onward, and
// the gathered testimonies are fused with Dempster's rule of combination,
// discounted per referral hop.
//
// Referrals follow the overlay's edges; agents do not add the witnesses
// they reach as new acquaintances (Yolum & Singh's network adaptation).
// All witness traffic travels over the p2p network, so experiments measure
// the referral protocol's real message cost.
package yusingh

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"wstrust/internal/core"
	"wstrust/internal/p2p"
)

// Mass is a Dempster–Shafer basic probability assignment over the frame
// {T, F}: belief the subject is trustworthy, untrustworthy, or unknown.
type Mass struct {
	T, F, U float64
}

// Vacuous is total ignorance.
func VacuousMass() Mass { return Mass{U: 1} }

// Valid reports whether the masses are a probability assignment.
func (m Mass) Valid() bool {
	for _, v := range []float64{m.T, m.F, m.U} {
		if math.IsNaN(v) || v < -1e-9 || v > 1+1e-9 {
			return false
		}
	}
	return math.Abs(m.T+m.F+m.U-1) < 1e-6
}

// FromEvidence maps positive/negative interaction counts onto masses.
func FromEvidence(pos, neg float64) Mass {
	den := pos + neg + 2
	return Mass{T: pos / den, F: neg / den, U: 2 / den}
}

// Combine is Dempster's rule of combination for the two-element frame.
// Total conflict returns vacuous rather than dividing by zero.
func Combine(a, b Mass) Mass {
	k := a.T*b.F + a.F*b.T
	den := 1 - k
	if den <= 1e-12 {
		return VacuousMass()
	}
	return Mass{
		T: (a.T*b.T + a.T*b.U + a.U*b.T) / den,
		F: (a.F*b.F + a.F*b.U + a.U*b.F) / den,
		U: (a.U * b.U) / den,
	}
}

// Discount scales a testimony's committed mass by w, pushing the rest into
// uncertainty — the standard treatment for witnesses reached through
// referral chains.
func Discount(m Mass, w float64) Mass {
	w = math.Max(0, math.Min(1, w))
	t, f := m.T*w, m.F*w
	return Mass{T: t, F: f, U: 1 - t - f}
}

// TrustValue projects masses onto the framework scale: pignistic
// probability as score, commitment (1−U) as confidence.
func (m Mass) TrustValue() core.TrustValue {
	return core.TrustValue{Score: m.T + 0.5*m.U, Confidence: 1 - m.U}.Clamp()
}

const (
	// depth is the maximum referral depth.
	depth = 3
	// hopDiscount is the per-hop testimony discount.
	hopDiscount = 0.7
	// sufficiency is how many direct interactions make an agent skip the
	// witness query entirely.
	sufficiency = 10
)

// agentState is one consumer agent's private experience.
type agentState struct {
	mu  sync.Mutex
	pos map[core.EntityID]float64
	neg map[core.EntityID]float64
}

func (a *agentState) observe(subject core.EntityID, v float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.pos[subject] += v
	a.neg[subject] += 1 - v
}

func (a *agentState) mass(subject core.EntityID) (Mass, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	p, n := a.pos[subject], a.neg[subject]
	if p+n == 0 {
		return VacuousMass(), false
	}
	return FromEvidence(p, n), true
}

func (a *agentState) evidenceCount(subject core.EntityID) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pos[subject] + a.neg[subject]
}

// Mechanism is the referral-network trust engine. Safe for concurrent use.
type Mechanism struct {
	overlay *p2p.Overlay

	mu     sync.Mutex
	agents map[core.ConsumerID]*agentState
	counts map[core.EntityID]float64

	// Global-fuse caches (local math only — witness queries always travel
	// the network): the sorted agent roster changes only when an agent is
	// created, and a fused belief only when someone reports on the subject.
	agentsEpoch core.Epoch                                     // guarded by mu
	idsMemo     core.Memo[[]core.ConsumerID]                   // guarded by mu
	fuseMemo    core.KeyedMemo[core.EntityID, core.TrustValue] // guarded by mu
}

var (
	_ core.Mechanism    = (*Mechanism)(nil)
	_ core.CostReporter = (*Mechanism)(nil)
)

// New builds the mechanism over an overlay, creating one agent per
// consumer and joining it to the network. Consumers not listed may still
// submit; their agents are created lazily but start with no neighbours
// (they can testify when queried by id, not via the overlay).
func New(overlay *p2p.Overlay, consumers []core.ConsumerID) *Mechanism {
	if overlay == nil {
		panic("yusingh: nil overlay")
	}
	m := &Mechanism{
		overlay: overlay,
		agents:  map[core.ConsumerID]*agentState{},
		counts:  map[core.EntityID]float64{},
	}
	for _, c := range consumers {
		m.ensureAgent(c)
	}
	return m
}

// Name implements core.Mechanism.
func (m *Mechanism) Name() string { return "yu-singh" }

func (m *Mechanism) ensureAgent(c core.ConsumerID) *agentState {
	m.mu.Lock()
	defer m.mu.Unlock()
	ag, ok := m.agents[c]
	if !ok {
		ag = &agentState{pos: map[core.EntityID]float64{}, neg: map[core.EntityID]float64{}}
		m.agents[c] = ag
		m.agentsEpoch.Bump()
		agent := ag
		m.overlay.Network().Join(p2p.NodeID(c), func(_ p2p.NodeID, kind string, payload any) any {
			if kind != "ys.query" {
				return nil
			}
			subject := payload.(core.EntityID)
			mass, ok := agent.mass(subject)
			if !ok {
				return nil
			}
			return mass
		})
	}
	return ag
}

// Submit implements core.Mechanism: the experience lands only in the
// consuming agent's private store — there is no central registry.
func (m *Mechanism) Submit(fb core.Feedback) error {
	if err := fb.Validate(); err != nil {
		return fmt.Errorf("yusingh: %w", err)
	}
	ag := m.ensureAgent(fb.Consumer)
	ag.observe(fb.Service, fb.Overall())
	m.mu.Lock()
	m.counts[fb.Service]++
	m.fuseMemo.Drop(fb.Service)
	m.mu.Unlock()
	return nil
}

// Score implements core.Mechanism. With a perspective: that agent's direct
// belief, widened by witness testimonies when local evidence is thin. The
// no-perspective (global) view fuses every agent's belief without discount
// — the theoretical upper bound a fully-connected gossip would reach.
func (m *Mechanism) Score(q core.Query) (core.TrustValue, bool) {
	m.mu.Lock()
	known := m.counts[q.Subject] > 0
	m.mu.Unlock()
	if !known {
		return core.TrustValue{Score: 0.5, Confidence: 0}, false
	}
	if q.Perspective == "" {
		return m.globalFuse(q.Subject), true
	}
	ag := m.ensureAgent(q.Perspective)
	direct, hasDirect := ag.mass(q.Subject)
	if hasDirect && ag.evidenceCount(q.Subject) >= sufficiency {
		return direct.TrustValue(), true
	}
	fused := direct
	if !hasDirect {
		fused = VacuousMass()
	}
	for _, tm := range m.witnessTestimonies(q.Perspective, q.Subject) {
		fused = Combine(fused, tm)
	}
	return fused.TrustValue(), true
}

// witnessTestimonies walks the referral network breadth-first from the
// origin, querying each reached agent over the network and discounting
// testimonies by referral depth.
func (m *Mechanism) witnessTestimonies(origin core.ConsumerID, subject core.EntityID) []Mass {
	net := m.overlay.Network()
	originNode := p2p.NodeID(origin)
	visited := map[p2p.NodeID]bool{originNode: true}
	frontier := []p2p.NodeID{originNode}
	var out []Mass
	discount := hopDiscount
	for hop := 0; hop < depth && len(frontier) > 0; hop++ {
		var next []p2p.NodeID
		for _, at := range frontier {
			for _, nb := range m.overlay.Neighbors(at) { // sorted by ID
				if visited[nb] {
					continue
				}
				visited[nb] = true
				reply, err := net.Send(at, nb, "ys.query", subject)
				if err != nil {
					continue
				}
				next = append(next, nb)
				if mass, ok := reply.(Mass); ok {
					out = append(out, Discount(mass, discount))
				}
			}
		}
		frontier = next
		discount *= hopDiscount
	}
	return out
}

// globalFuse combines every agent's undiscounted belief, memoized per
// subject until someone reports on it.
func (m *Mechanism) globalFuse(subject core.EntityID) core.TrustValue {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fuseMemo.Get(nil, subject, func() core.TrustValue { return m.fuseLocked(subject) })
}

// fuseLocked is the recompute path; m.mu is held throughout and agent
// locks nest inside it (nothing acquires them the other way around).
//
//lint:guarded fuseLocked runs with m.mu held by globalFuse
func (m *Mechanism) fuseLocked(subject core.EntityID) core.TrustValue {
	ids := m.idsMemo.Get(&m.agentsEpoch, m.agentIDsLocked)
	fused := VacuousMass()
	for _, id := range ids {
		if mass, ok := m.agents[id].mass(subject); ok {
			fused = Combine(fused, mass)
		}
	}
	return fused.TrustValue()
}

// agentIDsLocked snapshots the agent roster in sorted order.
func (m *Mechanism) agentIDsLocked() []core.ConsumerID {
	ids := make([]core.ConsumerID, 0, len(m.agents))
	for id := range m.agents {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// MessageCount implements core.CostReporter.
func (m *Mechanism) MessageCount() int64 {
	return m.overlay.Network().MessageCount()
}
