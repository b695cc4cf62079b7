// Package experiment is the harness that regenerates every figure and
// claim of the paper (see DESIGN.md §3): it wires complete marketplaces —
// fabric, registries, overlays, consumer populations, attack assignments —
// runs selection/feedback loops over any core.Mechanism, computes the
// quality metrics (regret, hit rate, reputation error, convergence,
// message and monitoring cost), and renders the aligned text tables and
// series the experiments report.
package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"wstrust/internal/attack"
	"wstrust/internal/core"
	"wstrust/internal/fault"
	"wstrust/internal/p2p"
	"wstrust/internal/resilience"
	"wstrust/internal/simclock"
	"wstrust/internal/soa"
	"wstrust/internal/workload"
)

// RoundDuration is the simulated time between selection rounds.
const RoundDuration = time.Hour

// Env is one complete simulated marketplace. Like the selection loop that
// drives it, an Env is single-goroutine; parallel suite runs give every
// experiment its own Env.
type Env struct {
	Clock  *simclock.Virtual
	Rng    *rand.Rand
	Fabric *soa.Fabric
	// Specs is the ground-truth service population. Mutate it through
	// AddSpec/ReplaceSpec so the oracle caches stay coherent.
	Specs     []workload.ServiceSpec
	Consumers []workload.ConsumerSpec
	Liars     attack.Assignment

	specByID map[core.ServiceID]workload.ServiceSpec

	// candCache holds per-category candidate sets, valid while the UDDI
	// version is unchanged; candVersion is the version it was built at.
	candCache   map[string][]core.Candidate
	candVersion int64

	// oracle memoizes bestFor per (preference fingerprint, category);
	// specsGen invalidates it when the spec population changes.
	oracle   map[oracleKey]oracleEntry
	specsGen int64

	// Fault layer (zero Faults = perfect substrate; every field below is
	// then nil and all Wire* calls are no-ops, so fault-free runs are
	// byte-identical to builds without this layer).
	Faults     fault.Profile
	seed       int64
	injector   *fault.Injector
	retrier    *fault.Retrier
	churners   []*fault.Churner
	wireSeq    int64
	faultRound int // current Run round; drives outage windows

	// Resilience layer (zero profile = no guard; Candidates then behaves
	// byte-identically to builds without this layer).
	Resil     resilience.Profile
	discovery *discoveryGuard
}

type oracleKey struct {
	prefs    string
	category string
}

type oracleEntry struct {
	gen  int64
	best float64
	id   core.ServiceID
}

// EnvConfig parameterizes environment construction.
type EnvConfig struct {
	Seed          int64
	Services      workload.ServiceOptions
	Consumers     int
	Heterogeneity float64
	// LiarFraction of consumers run Attack; nil Attack means honest.
	LiarFraction float64
	Attack       attack.Liar
	// CustomServices overrides generation with a prebuilt population
	// (specialist markets, mediated scenarios).
	CustomServices []workload.ServiceSpec
	// CustomConsumers overrides consumer generation with a prebuilt
	// population (slab-materialized populations, scripted preference
	// mixes). nil generates Consumers/Heterogeneity as usual.
	CustomConsumers []workload.ConsumerSpec
	// Faults selects the fault regime. nil inherits the process default
	// (set by wsxsim -faults); a non-nil profile is used verbatim, so
	// experiments that need a specific regime — including the explicitly
	// perfect substrate of a baseline run — pass their own.
	Faults *fault.Profile
	// Resilience selects the discovery-resilience regime. nil inherits the
	// process default (set by wsxsim -resilience); a non-nil profile is
	// used verbatim, so R5 pins its regimes per run.
	Resilience *resilience.Profile
}

// defaultFaults is the process-wide profile cfg.Faults == nil inherits.
// Set once by SetDefaultFaults before any experiments run (wsxsim does it
// before RunSuite spawns workers); never written concurrently.
var defaultFaults fault.Profile

// SetDefaultFaults installs the fault profile environments inherit when
// their config carries none. Call before running experiments.
func SetDefaultFaults(p fault.Profile) { defaultFaults = p }

// defaultResilience is the process-wide resilience profile
// cfg.Resilience == nil inherits; same contract as defaultFaults.
var defaultResilience resilience.Profile

// SetDefaultResilience installs the discovery-resilience profile
// environments inherit when their config carries none. Call before
// running experiments.
func SetDefaultResilience(p resilience.Profile) { defaultResilience = p }

// NewEnv builds the marketplace: generates the populations, publishes
// every service on a fabric, and assigns attackers.
func NewEnv(cfg EnvConfig) (*Env, error) {
	clock := simclock.NewVirtual()
	rng := simclock.NewRand(cfg.Seed)
	fabric := soa.NewFabric(clock, simclock.Stream(cfg.Seed, "fabric"), soa.NewUDDI())

	specs := cfg.CustomServices
	if specs == nil {
		specs = workload.GenerateServices(simclock.Stream(cfg.Seed, "services"), cfg.Services)
	}
	for _, s := range specs {
		if err := fabric.Register(s.Desc, s.Behavior); err != nil {
			return nil, fmt.Errorf("experiment: register %s: %w", s.Desc.Service, err)
		}
	}
	consumers := cfg.CustomConsumers
	if consumers == nil {
		consumers = workload.GenerateConsumers(simclock.Stream(cfg.Seed, "consumers"), cfg.Consumers, cfg.Heterogeneity)
	}
	ids := make([]core.ConsumerID, len(consumers))
	for i, c := range consumers {
		ids[i] = c.ID
	}
	env := &Env{
		Clock:     clock,
		Rng:       rng,
		Fabric:    fabric,
		Specs:     specs,
		Consumers: consumers,
		Liars:     attack.Assign(ids, cfg.LiarFraction, cfg.Attack),
		specByID:  map[core.ServiceID]workload.ServiceSpec{},
		seed:      cfg.Seed,
	}
	for _, s := range specs {
		env.specByID[s.Desc.Service] = s
	}
	profile := defaultFaults
	if cfg.Faults != nil {
		profile = *cfg.Faults
	}
	if profile.Enabled() {
		env.Faults = profile
		env.injector = fault.NewInjector(cfg.Seed, profile, clock)
		env.retrier = profile.Retry.Bind(cfg.Seed, clock)
		if len(profile.Outages) > 0 {
			windows := append([]fault.Window(nil), profile.Outages...)
			fabric.UDDI().SetBrowseGate(func() bool {
				for _, w := range windows {
					if w.Contains(env.faultRound) {
						return false
					}
				}
				return true
			})
		}
	}
	rp := defaultResilience
	if cfg.Resilience != nil {
		rp = *cfg.Resilience
	}
	if rp.Enabled() {
		env.Resil = rp
		g := &discoveryGuard{attempts: rp.Attempts}
		if g.attempts < 1 {
			g.attempts = 1
		}
		if rp.Breaker != nil {
			g.breaker = resilience.NewBreaker(*rp.Breaker, clock,
				simclock.Stream(cfg.Seed, "resilience.breaker"))
		}
		env.discovery = g
	}
	return env, nil
}

// WireNetwork attaches the environment's fault layer to a p2p transport:
// the seeded per-link injector and the shared retry policy. A no-op when
// faults are disabled, so mechanism builders call it unconditionally.
func (e *Env) WireNetwork(net *p2p.Network) {
	if e.injector == nil {
		return
	}
	net.SetFaultInjector(e.injector)
	net.SetRetrier(e.retrier)
}

// WireGrid fault-wires a P-Grid: transport faults plus churn with route
// repair after every membership change.
func (e *Env) WireGrid(g *p2p.PGrid) {
	if e.injector == nil {
		return
	}
	e.WireNetwork(g.Network())
	if e.Faults.ChurnRate > 0 {
		c := e.newChurner(g.Network())
		rng := e.repairRNG()
		c.OnRepair(func() { g.RepairRoutes(rng) })
	}
}

// WireOverlay fault-wires an unstructured overlay: transport faults plus
// churn with neighbour re-wiring after every membership change.
func (e *Env) WireOverlay(o *p2p.Overlay) {
	if e.injector == nil {
		return
	}
	e.WireNetwork(o.Network())
	if e.Faults.ChurnRate > 0 {
		c := e.newChurner(o.Network())
		rng := e.repairRNG()
		c.OnRepair(func() { o.Rewire(rng) })
	}
}

// newChurner builds a churner for one network with a wiring-unique seed
// (two substrates in one env must not churn in lockstep).
func (e *Env) newChurner(net *p2p.Network) *fault.Churner {
	e.wireSeq++
	c := fault.NewChurner(net, e.seed+e.wireSeq*1_000_003, e.Faults)
	e.churners = append(e.churners, c)
	return c
}

// repairRNG returns a wiring-unique stream for repair randomness.
func (e *Env) repairRNG() *rand.Rand {
	e.wireSeq++
	return simclock.Stream(e.seed, fmt.Sprintf("fault.repair:%d", e.wireSeq))
}

// ChurnStats sums down/up transitions across every wired churner (zero
// when faults are off or no churn-capable substrate was wired).
func (e *Env) ChurnStats() (down, up int64) {
	for _, c := range e.churners {
		d, u := c.Churned()
		down += d
		up += u
	}
	return down, up
}

// FaultStats reports the injector's accounting (zero when faults are off).
func (e *Env) FaultStats() fault.Stats {
	if e.injector == nil {
		return fault.Stats{}
	}
	return e.injector.Stats()
}

// Spec returns the generated spec for a service.
func (e *Env) Spec(id core.ServiceID) (workload.ServiceSpec, bool) {
	s, ok := e.specByID[id]
	return s, ok
}

// AddSpec adds a service to the ground-truth population (the service must
// already be registered on the fabric) and invalidates the oracle caches.
func (e *Env) AddSpec(s workload.ServiceSpec) {
	e.Specs = append(e.Specs, s)
	e.specByID[s.Desc.Service] = s
	e.specsGen++
}

// ReplaceSpec swaps the stored ground truth for an already-known service
// and invalidates the oracle caches.
func (e *Env) ReplaceSpec(s workload.ServiceSpec) {
	for i := range e.Specs {
		if e.Specs[i].Desc.Service == s.Desc.Service {
			e.Specs[i] = s
		}
	}
	e.specByID[s.Desc.Service] = s
	e.specsGen++
}

// Candidates returns the selection candidates (every published service in
// the category; empty category = all). The result is cached per category
// and reused until the registry changes — selection loops call this once
// per consumer per round, and rebuilding the set dominated their profiles.
// The returned slice is shared: callers must not mutate it. Reuse of the
// same backing array also lets core.RankSession detect an unchanged set by
// identity and skip re-normalizing.
func (e *Env) Candidates(category string) []core.Candidate {
	uddi := e.Fabric.UDDI()
	if !e.discoveryUp(uddi) {
		// Registry outage: degrade to the stale cached view rather than
		// stalling selection — consumers keep choosing among the services
		// they already know about until discovery comes back.
		out := e.candCache[category]
		if e.discovery != nil && len(out) == 0 {
			e.discovery.unserved++
		}
		return out
	}
	if v := uddi.Version(); e.candCache == nil || v != e.candVersion {
		e.candCache = map[string][]core.Candidate{}
		e.candVersion = v
	}
	if out, ok := e.candCache[category]; ok {
		return out
	}
	var out []core.Candidate
	for _, d := range uddi.All() {
		if category == "" || d.Category == category {
			out = append(out, d.Candidate())
		}
	}
	e.candCache[category] = out
	return out
}

// ConsumerIDs lists the consumer ids in population order.
func (e *Env) ConsumerIDs() []core.ConsumerID {
	out := make([]core.ConsumerID, len(e.Consumers))
	for i, c := range e.Consumers {
		out[i] = c.ID
	}
	return out
}
