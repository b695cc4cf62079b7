package soa

import (
	"fmt"
	"math/rand"
	"sync"

	"wstrust/internal/core"
	"wstrust/internal/qos"
	"wstrust/internal/simclock"
)

// Result is the outcome of one service invocation as seen by the consumer:
// the QoS the consumer could measure around the call, and the SOAP fault
// it received when the call failed.
type Result struct {
	Observation qos.Observation
	// Fault is non-nil when the service failed or was unavailable.
	Fault *Fault
}

// Succeeded reports whether the invocation completed without fault.
func (r Result) Succeeded() bool { return r.Fault == nil }

// Fabric hosts the simulated services and routes invocations to them. Each
// invocation yields a QoS observation drawn from the service's hidden
// behaviour and hands it to the consumer as is: the mechanisms read only
// observed outcomes, so no SOAP envelope is built for the call, and a
// failed call carries the fault a live stack would have returned.
//
// Fabric is safe for concurrent use, though the experiments drive it from
// one goroutine for determinism.
type Fabric struct {
	clock simclock.Clock

	mu        sync.Mutex
	rng       *rand.Rand
	uddi      *UDDI
	behaviors map[core.ServiceID]Behavior
	callN     int64
	faultN    int64
}

// NewFabric builds an empty fabric over the given clock, RNG and registry.
// All three must be non-nil; the registry is shared so consumers can browse
// it directly.
func NewFabric(clock simclock.Clock, rng *rand.Rand, uddi *UDDI) *Fabric {
	if clock == nil || rng == nil || uddi == nil {
		panic("soa: NewFabric requires clock, rng and uddi")
	}
	return &Fabric{
		clock:     clock,
		rng:       rng,
		uddi:      uddi,
		behaviors: map[core.ServiceID]Behavior{},
	}
}

// UDDI returns the registry the fabric publishes into.
func (f *Fabric) UDDI() *UDDI { return f.uddi }

// Register publishes the description and installs the service's hidden
// behaviour.
func (f *Fabric) Register(d Description, b Behavior) error {
	if err := f.uddi.Publish(d); err != nil {
		return fmt.Errorf("soa: register %s: %w", d.Service, err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.behaviors[d.Service] = b
	return nil
}

// Deregister removes a service from both registry and fabric.
func (f *Fabric) Deregister(id core.ServiceID) {
	f.uddi.Unpublish(id)
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.behaviors, id)
}

// Behavior exposes the ground-truth behaviour of a service. Only the
// experiment oracle and monitors use it; mechanisms never see it.
func (f *Fabric) Behavior(id core.ServiceID) (Behavior, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	b, ok := f.behaviors[id]
	return b, ok
}

// Calls reports the cumulative number of invocations routed.
func (f *Fabric) Calls() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.callN
}

// Faults reports the cumulative number of faulted invocations.
func (f *Fabric) Faults() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.faultN
}

// Invoke routes one call from consumer to the named service operation
// and returns the consumer-side result; the outcome depends only on the
// service's behaviour at the fabric clock's instant. Unknown services
// return an error (nothing to observe); registered-but-unavailable services
// return a Result with a Fault and a failure observation, because a
// deployed-but-down service is a QoS event the consumer can and should
// report.
func (f *Fabric) Invoke(consumer core.ConsumerID, service core.ServiceID, operation string) (Result, error) {
	if _, ok := f.uddi.Get(service); !ok {
		return Result{}, fmt.Errorf("soa: invoke %s: service not published", service)
	}
	now := f.clock.Now()

	f.mu.Lock()
	defer f.mu.Unlock()
	behavior, ok := f.behaviors[service]
	if !ok {
		return Result{}, fmt.Errorf("soa: invoke %s: no behaviour installed", service)
	}
	res := Result{Observation: behavior.Sample(now, f.rng)}
	f.callN++
	if !res.Observation.Success {
		res.Fault = &Fault{Code: "Server.Unavailable", String: fmt.Sprintf("service %s unavailable", service)}
		f.faultN++
	}
	return res, nil
}
