// Package wstrust is a trust-and-reputation framework for web service
// selection: a working reproduction of the design space surveyed in
// "A Review on Trust and Reputation for Web Service Selection" (Wang &
// Vassileva, ICDCS Workshops 2007).
//
// It bundles a simulated service-oriented substrate (WSDL-like
// descriptions, SOAP envelopes, a UDDI-like registry, QoS behaviour
// models), the W3C QoS taxonomy, every trust/reputation mechanism the
// survey classifies (eBay, Sporas/Histos, PageRank, Amazon/Epinions,
// collaborative filtering, Liu-Ngu-Zeng, Maximilien-Singh, Day's expert
// systems, EigenTrust, PeerTrust, Aberer-Despotovic complaints, Yu-Singh
// referrals, XRep polling, Wang-Vassileva Bayesian networks, Vu et al.'s
// decentralized QoS reports, and the unfair-rating defenses), a selection
// engine, and an experiment harness regenerating the paper's figures.
//
// The Marketplace type in this package is the quickstart entry point:
//
//	m, _ := wstrust.NewMarketplace(wstrust.WithSeed(1))
//	m.RegisterConsumer("alice", wstrust.Preferences{wstrust.ResponseTime: 2, wstrust.Cost: 1})
//	_ = m.PublishSimulated("weather", 10)
//	sel, _ := m.Use("alice", "weather") // select → invoke → rate → report
//
// Everything underneath is importable directly (wstrust/internal/... from
// within this module) for finer control; see the examples directory.
package wstrust

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"wstrust/internal/core"
	"wstrust/internal/qos"
	"wstrust/internal/registry"
	"wstrust/internal/simclock"
	"wstrust/internal/soa"
	"wstrust/internal/trust/beta"
	"wstrust/internal/trust/cf"
	"wstrust/internal/trust/ebay"
	"wstrust/internal/trust/filtering"
	"wstrust/internal/trust/pagerank"
	"wstrust/internal/trust/resource"
	"wstrust/internal/trust/sporas"
	"wstrust/internal/typology"
	"wstrust/internal/workload"
)

// Re-exported core vocabulary, so quickstart users need only this package.
type (
	// Mechanism is the trust/reputation engine contract.
	Mechanism = core.Mechanism
	// Feedback is a consumer's report after consuming a service.
	Feedback = core.Feedback
	// TrustValue is a score plus confidence.
	TrustValue = core.TrustValue
	// Query asks a mechanism for a score.
	Query = core.Query
	// Preferences weighs QoS metrics.
	Preferences = qos.Preferences
	// MetricID names a QoS metric from the Figure-3 taxonomy.
	MetricID = qos.MetricID
	// ConsumerID, ProviderID and ServiceID identify participants.
	ConsumerID = core.ConsumerID
	// ProviderID identifies a provider.
	ProviderID = core.ProviderID
	// ServiceID identifies a service.
	ServiceID = core.ServiceID
	// ServiceDescription is a WSDL-like service advertisement.
	ServiceDescription = soa.Description
	// ServiceOperation is one operation of a service's interface.
	ServiceOperation = soa.Operation
	// ServiceBehavior is the simulated ground-truth behaviour of a
	// published service (hidden from consumers).
	ServiceBehavior = soa.Behavior
	// QoSVector maps metrics to raw values.
	QoSVector = qos.Vector
)

// Commonly used taxonomy metrics, re-exported.
const (
	ResponseTime = qos.ResponseTime
	Availability = qos.Availability
	Accuracy     = qos.Accuracy
	Throughput   = qos.Throughput
	Cost         = qos.Cost
)

// mechanisms are the self-contained centralized mechanisms NewMechanism
// builds, sorted by name.
var mechanisms = []struct {
	name  string
	build func() Mechanism
}{
	{"amazon", func() Mechanism { return resource.NewAmazon() }},
	{"beta", func() Mechanism { return beta.New() }},
	{"beta-personalized", func() Mechanism { return beta.New(beta.WithPersonalized(true)) }},
	{"cf-cosine", func() Mechanism { return cf.New(cf.WithSimilarity(cf.Cosine)) }},
	{"cf-pearson", func() Mechanism { return cf.New() }},
	{"ebay", func() Mechanism { return ebay.New() }},
	{"epinions", func() Mechanism { return resource.NewEpinions() }},
	{"filter-cluster", func() Mechanism { return filtering.New(filtering.Cluster) }},
	{"filter-majority", func() Mechanism { return filtering.New(filtering.Majority) }},
	{"filter-zhang-cohen", func() Mechanism { return filtering.New(filtering.ZhangCohen) }},
	{"histos", func() Mechanism { return sporas.New(sporas.WithHistos(true)) }},
	{"pagerank", func() Mechanism { return pagerank.New() }},
	{"sporas", func() Mechanism { return sporas.New() }},
}

// NewMechanism builds one of the self-contained centralized mechanisms by
// a name MechanismNames lists. Decentralized mechanisms need
// overlays/grids; build those directly from the internal packages (see
// examples/p2pmarket).
func NewMechanism(name string) (Mechanism, error) {
	for _, m := range mechanisms {
		if m.name == name {
			return m.build(), nil
		}
	}
	return nil, fmt.Errorf("wstrust: unknown mechanism %q", name)
}

// MechanismNames lists the names NewMechanism accepts, sorted.
func MechanismNames() []string {
	names := make([]string, len(mechanisms))
	for i, m := range mechanisms {
		names[i] = m.name
	}
	return names
}

// TaxonomyTree renders the Figure-3 QoS metric taxonomy.
func TaxonomyTree() string { return qos.RenderTaxonomy() }

// ClassificationTree renders the Figure-4 typology with every implemented
// mechanism in place.
func ClassificationTree() string { return typology.Builtin().RenderTree() }

// Marketplace is the quickstart facade: a simulated service fabric, a
// selection engine over a chosen mechanism, and per-consumer preference
// profiles, wired together.
type Marketplace struct {
	clock  *simclock.Virtual
	fabric *soa.Fabric
	mech   Mechanism
	engine *core.Engine
	seed   int64

	prefs   map[ConsumerID]Preferences
	specs   map[ServiceID]workload.ServiceSpec
	history *registry.Store
	next    int
}

// MarketplaceOption configures NewMarketplace.
type MarketplaceOption func(*marketplaceConfig)

type marketplaceConfig struct {
	seed       int64
	mech       Mechanism
	engineOpts []core.EngineOption
}

// WithSeed sets the simulation seed (default 1).
func WithSeed(seed int64) MarketplaceOption {
	return func(c *marketplaceConfig) { c.seed = seed }
}

// WithMechanism installs a custom mechanism (default: personalized beta
// reputation).
func WithMechanism(m Mechanism) MarketplaceOption {
	return func(c *marketplaceConfig) { c.mech = m }
}

// WithExploration sets ε-greedy exploration on the selection engine.
func WithExploration(epsilon float64) MarketplaceOption {
	return func(c *marketplaceConfig) {
		c.engineOpts = append(c.engineOpts,
			core.WithPolicy(core.PolicyEpsilonGreedy), core.WithEpsilon(epsilon))
	}
}

// WithProviderBootstrap enables cold-start blending from provider
// reputation.
func WithProviderBootstrap() MarketplaceOption {
	return func(c *marketplaceConfig) {
		c.engineOpts = append(c.engineOpts, core.WithProviderBootstrap(true))
	}
}

// NewMarketplace builds an empty marketplace.
func NewMarketplace(opts ...MarketplaceOption) (*Marketplace, error) {
	cfg := marketplaceConfig{seed: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.mech == nil {
		cfg.mech = beta.New(beta.WithPersonalized(true))
	}
	clock := simclock.NewVirtual()
	m := &Marketplace{
		clock:   clock,
		fabric:  soa.NewFabric(clock, simclock.Stream(cfg.seed, "fabric"), soa.NewUDDI()),
		mech:    cfg.mech,
		seed:    cfg.seed,
		prefs:   map[ConsumerID]Preferences{},
		specs:   map[ServiceID]workload.ServiceSpec{},
		history: registry.NewStore(),
	}
	m.engine = core.NewEngine(cfg.mech, simclock.Stream(cfg.seed, "engine"), cfg.engineOpts...)
	return m, nil
}

// Mechanism returns the installed mechanism, for direct queries.
func (m *Marketplace) Mechanism() Mechanism { return m.mech }

// RegisterConsumer installs a consumer's QoS preferences.
func (m *Marketplace) RegisterConsumer(id ConsumerID, prefs Preferences) error {
	if err := prefs.Validate(); err != nil {
		return fmt.Errorf("wstrust: %w", err)
	}
	m.prefs[id] = prefs.Clone()
	return nil
}

// PublishSimulated generates and publishes n simulated services in the
// category (mixed quality tiers, hidden ground truth) and returns their
// ids.
func (m *Marketplace) PublishSimulated(category string, n int) ([]ServiceID, error) {
	rng := simclock.Stream(m.seed, "publish-"+category)
	specs := workload.GenerateServices(rng, workload.ServiceOptions{
		N: n, Category: category, IDOffset: m.next,
	})
	m.next += n
	ids := make([]ServiceID, 0, n)
	for _, s := range specs {
		if err := m.fabric.Register(s.Desc, s.Behavior); err != nil {
			return nil, err
		}
		m.specs[s.Desc.Service] = s
		ids = append(ids, s.Desc.Service)
	}
	return ids, nil
}

// Selection reports one Use outcome.
type Selection struct {
	Service   ServiceID
	Provider  ProviderID
	Trust     TrustValue
	Succeeded bool
	// Rating is the overall rating the consumer reported.
	Rating float64
}

// Use performs one full cycle for the consumer: find candidates in the
// category, select by trust + preferences, invoke, grade the observation
// honestly, and submit feedback to the mechanism.
func (m *Marketplace) Use(consumer ConsumerID, category string) (Selection, error) {
	prefs, ok := m.prefs[consumer]
	if !ok {
		return Selection{}, fmt.Errorf("wstrust: consumer %q not registered", consumer)
	}
	var cands []core.Candidate
	for _, d := range m.fabric.UDDI().FindByCategory(category) {
		cands = append(cands, d.Candidate())
	}
	if len(cands) == 0 {
		return Selection{}, fmt.Errorf("wstrust: no services published in %q", category)
	}
	chosen, _, err := m.engine.Select(consumer, prefs, cands)
	if err != nil {
		return Selection{}, err
	}
	res, err := m.fabric.Invoke(consumer, chosen.Service, "Execute")
	if err != nil {
		return Selection{}, err
	}
	ratings := workload.Grade(res.Observation, prefs)
	fb := Feedback{
		Consumer: consumer,
		Service:  chosen.Service,
		Provider: chosen.Provider,
		Context:  core.Context(category),
		Observed: res.Observation,
		Ratings:  ratings,
		At:       m.clock.Now(),
	}
	if err := m.history.Submit(fb); err != nil {
		return Selection{}, err
	}
	if err := m.mech.Submit(fb); err != nil {
		return Selection{}, err
	}
	m.clock.Advance(defaultStep)
	return Selection{
		Service:   chosen.Service,
		Provider:  chosen.Provider,
		Trust:     chosen.Trust,
		Succeeded: res.Succeeded(),
		Rating:    fb.Overall(),
	}, nil
}

// Score queries the mechanism for the consumer's current trust in a
// service in the category.
func (m *Marketplace) Score(consumer ConsumerID, service ServiceID, category string) (TrustValue, bool) {
	return m.mech.Score(Query{
		Perspective: consumer,
		Subject:     service,
		Context:     core.Context(category),
		Facet:       core.FacetOverall,
	})
}

// TrueUtility exposes the hidden oracle utility of a published simulated
// service under the consumer's preferences — for demos and tests only; a
// real deployment has no oracle.
func (m *Marketplace) TrueUtility(consumer ConsumerID, service ServiceID) (float64, bool) {
	spec, ok := m.specs[service]
	if !ok {
		return 0, false
	}
	prefs := m.prefs[consumer]
	if prefs == nil {
		prefs = workload.BasePreferences()
	}
	return workload.TrueUtility(spec, prefs), true
}

// PublishService publishes a custom service: the advertisement consumers
// see and the hidden behaviour the simulator delivers. Use it when the
// generated populations of PublishSimulated do not fit your scenario.
func (m *Marketplace) PublishService(d ServiceDescription, b ServiceBehavior) error {
	if err := m.fabric.Register(d, b); err != nil {
		return err
	}
	m.specs[d.Service] = workload.ServiceSpec{Desc: d, Behavior: b}
	return nil
}

// ExportHistory writes the marketplace's full feedback log as
// line-delimited JSON (see the registry package), so reputation state can
// be persisted and later replayed.
func (m *Marketplace) ExportHistory(w io.Writer) error {
	return m.history.Export(w)
}

// ImportHistory reads a feedback log written by ExportHistory, storing it
// and replaying every record into the installed mechanism. It returns the
// number of records imported.
func (m *Marketplace) ImportHistory(r io.Reader) (int, error) {
	staged := registry.NewStore()
	n, err := staged.Import(r)
	if err != nil {
		return n, err
	}
	if _, err := staged.Replay(m.mech); err != nil {
		return n, err
	}
	var buf bytes.Buffer
	if err := staged.Export(&buf); err != nil {
		return n, err
	}
	if _, err := m.history.Import(&buf); err != nil {
		return n, err
	}
	return n, nil
}

// defaultStep is the simulated time advanced per Use call.
const defaultStep = 10 * time.Minute
