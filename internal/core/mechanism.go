package core

import "time"

// Query asks a mechanism for a trust or reputation score.
type Query struct {
	// Perspective is the consumer from whose viewpoint trust is evaluated.
	// Personalized mechanisms (the paper's third criterion) give different
	// answers for different perspectives; global mechanisms ignore it. An
	// empty perspective explicitly requests the global/public view.
	Perspective ConsumerID
	// Subject is the entity being judged: a service, or — for mechanisms
	// supporting provider-level reputation — a provider.
	Subject EntityID
	// Context scopes the judgment (context-specific trust). ContextAny
	// requests the cross-context aggregate.
	Context Context
	// Facet selects one QoS aspect; FacetOverall the combined judgment.
	Facet Facet
}

// Mechanism is the contract every surveyed trust and reputation system in
// this repository implements, from eBay's counter to Vu et al.'s
// decentralized QoS reports. The experiment harness and the selection
// engine treat all mechanisms uniformly through it.
type Mechanism interface {
	// Name returns the mechanism's short stable name ("ebay", "eigentrust").
	Name() string
	// Submit ingests one consumer feedback. Mechanisms must validate and
	// reject malformed feedback rather than corrupt their state.
	Submit(fb Feedback) error
	// Score answers a trust query. The boolean reports whether the
	// mechanism has any basis for an answer; callers treat false as
	// "unknown entity" and fall back to neutral priors or exploration.
	Score(q Query) (TrustValue, bool)
}

// ProviderScorer is implemented by mechanisms that also maintain
// provider-level reputation — the paper's Section-5 direction "trust and
// reputation mechanisms for web service providers rather than just for web
// services". Subject in the query is then a ProviderID.
type ProviderScorer interface {
	ScoreProvider(q Query) (TrustValue, bool)
}

// Ticker is implemented by mechanisms that recompute state periodically
// rather than per-feedback (EigenTrust's power iteration, PageRank,
// cluster-filtering passes). The harness calls Tick once per simulation
// round with the current instant.
type Ticker interface {
	Tick(now time.Time)
}

// CostReporter exposes the communication/computation cost a mechanism has
// accrued, so experiments F2 and C6 can compare centralized and
// decentralized designs. Counts are cumulative.
type CostReporter interface {
	// MessageCount is the number of network messages the mechanism caused.
	MessageCount() int64
}
