// Package sla implements Service Level Agreements as described in the
// paper's Section 2: a consumer "can negotiate with a provider to make an
// agreement ... which specifies the quality that a service should meet",
// including "the methods of how to measure different QoS metrics"; the SLA
// "expresses an obligation of a service provider, who may have to pay a
// penalty when the service is not delivered according to SLA". A third
// party supervises delivery.
//
// The paper also notes SLAs come with a cost (negotiation time, expenses);
// the package accounts for that so experiment F2 can weigh the SLA flow
// against the other information flows of Figure 2.
package sla

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"wstrust/internal/core"
	"wstrust/internal/qos"
)

// Obligation is one per-metric promise: the service meets Threshold in the
// metric's desirable direction (at most for lower-better metrics, at least
// for higher-better ones).
type Obligation struct {
	Metric    qos.MetricID
	Threshold float64
}

// Met reports whether a measured value satisfies the obligation.
func (o Obligation) Met(value float64) bool {
	if qos.PolarityOf(o.Metric) == qos.LowerBetter {
		return value <= o.Threshold
	}
	return value >= o.Threshold
}

// Agreement is a negotiated SLA between one consumer and one provider for
// one service.
type Agreement struct {
	ID          string
	Consumer    core.ConsumerID
	Provider    core.ProviderID
	Service     core.ServiceID
	Obligations []Obligation
	// PenaltyPerViolation is what the provider pays the consumer each time
	// an invocation breaches an obligation.
	PenaltyPerViolation float64
	// NegotiationCost is the one-time overhead both sides paid to set the
	// agreement up.
	NegotiationCost float64
	EffectiveAt     time.Time
}

// Violation records one breached obligation on one invocation.
type Violation struct {
	Agreement string
	Metric    qos.MetricID
	Threshold float64
	Measured  float64
	At        time.Time
}

// String renders the violation for logs and reports.
func (v Violation) String() string {
	return fmt.Sprintf("sla %s: %s measured %.4g vs threshold %.4g at %s",
		v.Agreement, v.Metric, v.Measured, v.Threshold, v.At.Format(time.RFC3339))
}

// Check evaluates one observation against the agreement and returns any
// violations. A failed invocation breaches every obligation: the consumer
// got nothing, so every promised quality was missed.
func (a Agreement) Check(obs qos.Observation) []Violation {
	var out []Violation
	for _, o := range a.Obligations {
		breached := false
		if !obs.Success {
			breached = true
		} else if v, ok := obs.Values[o.Metric]; ok && !o.Met(v) {
			breached = true
		}
		if breached {
			measured := 0.0
			if obs.Success {
				measured = obs.Values[o.Metric]
			}
			out = append(out, Violation{
				Agreement: a.ID, Metric: o.Metric,
				Threshold: o.Threshold, Measured: measured, At: obs.At,
			})
		}
	}
	return out
}

const (
	// margin is the slack (relative: 0.1 = 10%) the provider demands
	// between its advertised value and the threshold it will promise.
	margin = 0.1
	// penalty is what one violation costs the provider.
	penalty = 1
	// negotiationCost is an agreement's one-time setup cost — the paper
	// stresses that "making a SLA comes with a cost".
	negotiationCost = 10
)

// Negotiate plays the consumer-provider negotiation: the consumer requests
// thresholds; the provider accepts each obligation only when its advertised
// QoS meets the threshold with margin to spare. If no requested obligation
// survives, negotiation fails — there is nothing to agree on.
func Negotiate(id string, consumer core.ConsumerID, provider core.ProviderID, service core.ServiceID,
	requested []Obligation, advertised qos.Vector) (Agreement, error) {

	var accepted []Obligation
	for _, o := range requested {
		adv, ok := advertised[o.Metric]
		if !ok {
			continue // provider makes no claim; it will not promise
		}
		comfortable := false
		if qos.PolarityOf(o.Metric) == qos.LowerBetter {
			comfortable = adv*(1+margin) <= o.Threshold
		} else {
			comfortable = adv >= o.Threshold*(1+margin)
		}
		if comfortable {
			accepted = append(accepted, o)
		}
	}
	if len(accepted) == 0 {
		return Agreement{}, fmt.Errorf("sla: negotiation %s failed: provider %s accepted none of %d obligations",
			id, provider, len(requested))
	}
	return Agreement{
		ID: id, Consumer: consumer, Provider: provider, Service: service,
		Obligations:         accepted,
		PenaltyPerViolation: penalty,
		NegotiationCost:     negotiationCost,
	}, nil
}

// Ledger is the third party supervising agreements: it checks observations,
// records violations, and accumulates penalties per provider. Safe for
// concurrent use.
type Ledger struct {
	mu         sync.Mutex
	agreements map[string]Agreement
	violations []Violation
	penalties  map[core.ProviderID]float64
	setupCost  float64
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{
		agreements: map[string]Agreement{},
		penalties:  map[core.ProviderID]float64{},
	}
}

// Register files an agreement with the third party, accruing its
// negotiation cost.
func (l *Ledger) Register(a Agreement) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.agreements[a.ID]; dup {
		return fmt.Errorf("sla: agreement %s already registered", a.ID)
	}
	l.agreements[a.ID] = a
	l.setupCost += a.NegotiationCost
	return nil
}

// Observe checks one invocation outcome against the consumer's agreement
// for the service, if any, recording violations and penalties. It returns
// the violations found.
func (l *Ledger) Observe(consumer core.ConsumerID, service core.ServiceID, obs qos.Observation) []Violation {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Violation
	for _, a := range l.agreements {
		if a.Consumer != consumer || a.Service != service {
			continue
		}
		vs := a.Check(obs)
		out = append(out, vs...)
		l.violations = append(l.violations, vs...)
		l.penalties[a.Provider] += float64(len(vs)) * a.PenaltyPerViolation
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Metric < out[j].Metric })
	return out
}

// Penalty reports the cumulative penalty owed by provider.
func (l *Ledger) Penalty(p core.ProviderID) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.penalties[p]
}

// Violations reports the total violation count.
func (l *Ledger) Violations() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.violations)
}

// SetupCost reports the accumulated negotiation overhead — the "cost, such
// as time, expenses" the paper attributes to the SLA approach.
func (l *Ledger) SetupCost() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.setupCost
}
