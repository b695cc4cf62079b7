// Package monitor implements the paper's active-monitoring information
// flows (Figure 2): deployable QoS sensors reporting to a third party [27],
// central-node active probing, and the explorer agents of Maximilien &
// Singh [19] that re-probe services with a negative reputation so improved
// services regain a chance of selection.
//
// Every probe is cost-accounted, because the paper's argument against
// sensor monitoring is economic: "each web service needs a sensor to
// monitor it ... the cost will be huge", whereas consumer feedback "can
// greatly lower the burden of the central node". Experiments F2/C2
// reproduce exactly that trade-off.
package monitor

import (
	"fmt"
	"sort"
	"sync"

	"wstrust/internal/core"
	"wstrust/internal/qos"
	"wstrust/internal/soa"
)

// MonitorConsumer is the consumer identity probes run under, so fabric
// listeners can distinguish monitoring traffic from real consumers.
const MonitorConsumer core.ConsumerID = "monitor"

const (
	// probeCost is the cost charged per probe invocation.
	probeCost = 1
	// deployCost is the one-time cost of installing or removing a sensor
	// on a service: the paper notes deployment overhead "to install or
	// remove sensors" in dynamic systems.
	deployCost = 5
)

// ThirdParty is the monitoring authority: it owns sensors, probes services
// through the fabric, and aggregates trusted QoS reports. Safe for
// concurrent use.
type ThirdParty struct {
	fabric *soa.Fabric

	mu        sync.Mutex
	sensors   map[core.ServiceID]struct{}          // guarded by mu
	history   map[core.ServiceID][]qos.Observation // guarded by mu
	totalCost float64                              // guarded by mu
	probes    int64                                // guarded by mu
}

// NewThirdParty builds a monitor over the fabric.
func NewThirdParty(fabric *soa.Fabric) *ThirdParty {
	if fabric == nil {
		panic("monitor: NewThirdParty requires a fabric")
	}
	return &ThirdParty{
		fabric:  fabric,
		sensors: map[core.ServiceID]struct{}{},
		history: map[core.ServiceID][]qos.Observation{},
	}
}

// Deploy installs a sensor on the service, accruing the deployment cost.
// Deploying twice is an error: it would double-count cost silently.
func (tp *ThirdParty) Deploy(id core.ServiceID) error {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if _, ok := tp.sensors[id]; ok {
		return fmt.Errorf("monitor: sensor already deployed on %s", id)
	}
	tp.sensors[id] = struct{}{}
	tp.totalCost += deployCost
	return nil
}

// Remove uninstalls a sensor; removal also costs (the paper counts both
// install and remove overhead in dynamic environments).
func (tp *ThirdParty) Remove(id core.ServiceID) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if _, ok := tp.sensors[id]; !ok {
		return
	}
	delete(tp.sensors, id)
	tp.totalCost += deployCost
}

// Sensors returns the monitored services, sorted.
func (tp *ThirdParty) Sensors() []core.ServiceID {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	out := make([]core.ServiceID, 0, len(tp.sensors))
	for id := range tp.sensors {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Probe invokes one service once as the monitor and records the
// observation. Probing an unmonitored service is allowed (central active
// monitoring needs no installed sensor) and costs the same.
func (tp *ThirdParty) Probe(id core.ServiceID) (qos.Observation, error) {
	res, err := tp.fabric.Invoke(MonitorConsumer, id, "Probe")
	if err != nil {
		return qos.Observation{}, fmt.Errorf("monitor: probe %s: %w", id, err)
	}
	tp.mu.Lock()
	defer tp.mu.Unlock()
	tp.history[id] = append(tp.history[id], res.Observation)
	tp.totalCost += probeCost
	tp.probes++
	return res.Observation, nil
}

// ProbeAll probes every service with a deployed sensor once, in sorted
// order, and reports how many probes succeeded in reaching their service.
func (tp *ThirdParty) ProbeAll() int {
	ok := 0
	for _, id := range tp.Sensors() {
		if _, err := tp.Probe(id); err == nil {
			ok++
		}
	}
	return ok
}

// TrustedReport aggregates the monitor's own observations of a service into
// mean raw values per metric, plus the observed availability ratio. This is
// the "QoS data from dedicated monitoring agents" Vu et al. [29] compare
// consumer reports against to detect dishonest feedback. The boolean is
// false when the monitor has never successfully probed the service.
func (tp *ThirdParty) TrustedReport(id core.ServiceID) (qos.Vector, bool) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	obs := tp.history[id]
	if len(obs) == 0 {
		return nil, false
	}
	sums := qos.Vector{}
	counts := map[qos.MetricID]float64{}
	succ := 0
	for _, o := range obs {
		if !o.Success {
			continue
		}
		succ++
		for m, v := range o.Values {
			if m == qos.Availability {
				continue
			}
			sums[m] += v
			counts[m]++
		}
	}
	out := qos.Vector{qos.Availability: float64(succ) / float64(len(obs))}
	for m, s := range sums {
		out[m] = s / counts[m]
	}
	return out, true
}

// Cost reports the cumulative monitoring cost (deployments + probes).
func (tp *ThirdParty) Cost() float64 {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return tp.totalCost
}

// Probes reports the number of probe invocations issued.
func (tp *ThirdParty) Probes() int64 {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return tp.probes
}
