package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"wstrust/internal/qos"
)

// Candidate is one service competing for selection: the functional match
// set a consumer gets back from the registry ("a bunch of services offering
// the same function", Section 1).
type Candidate struct {
	Service  ServiceID
	Provider ProviderID
	Context  Context
	// Advertised is the provider-published QoS description. It may be
	// exaggerated; that is the point of the paper.
	Advertised qos.Vector
}

// Ranked is a candidate with the score the engine assigned it.
type Ranked struct {
	Candidate
	Trust   TrustValue
	Utility float64
	// Score is the final ranking key combining trust, utility and the
	// provider-reputation bootstrap.
	Score float64
}

// Policy controls how the engine turns scores into a choice.
type Policy int

const (
	// PolicyGreedy always picks the top-scored candidate.
	PolicyGreedy Policy = iota + 1
	// PolicyEpsilonGreedy picks the top candidate with probability 1−ε and
	// a uniformly random candidate otherwise, so unknown services keep
	// getting a chance — the engine-side counterpart of the explorer-agent
	// idea in Maximilien & Singh [19].
	PolicyEpsilonGreedy
)

// EngineOption configures an Engine.
type EngineOption func(*Engine)

// WithPolicy sets the selection policy (default PolicyGreedy).
func WithPolicy(p Policy) EngineOption { return func(e *Engine) { e.policy = p } }

// WithEpsilon sets the exploration rate for PolicyEpsilonGreedy (default 0.1).
func WithEpsilon(eps float64) EngineOption { return func(e *Engine) { e.epsilon = eps } }

// WithProviderBootstrap enables blending a service's trust with its
// provider's reputation when service evidence is thin — the Section-5
// cold-start direction ("if a provider has a good reputation for providing
// good quality services, a consumer would like to believe that its new
// service has good quality too"). It takes effect only when the mechanism
// implements ProviderScorer.
func WithProviderBootstrap(enabled bool) EngineOption {
	return func(e *Engine) { e.providerBootstrap = enabled }
}

// WithAdvertisedFallback controls whether candidates unknown to the
// mechanism are scored by their advertised QoS utility (the pre-reputation
// status quo the paper criticizes) instead of the neutral prior.
func WithAdvertisedFallback(enabled bool) EngineOption {
	return func(e *Engine) { e.advertisedFallback = enabled }
}

// Engine ranks candidate services for a consumer by combining mechanism
// trust scores with the consumer's QoS preference utility, and picks one
// according to its policy.
type Engine struct {
	mech    Mechanism
	rng     *rand.Rand
	policy  Policy
	epsilon float64

	providerBootstrap  bool
	advertisedFallback bool
}

// NewEngine builds a selection engine over mech. rng drives the
// ε-greedy policy and must not be nil.
func NewEngine(mech Mechanism, rng *rand.Rand, opts ...EngineOption) *Engine {
	if mech == nil {
		panic("core: NewEngine with nil mechanism")
	}
	if rng == nil {
		panic("core: NewEngine with nil rng")
	}
	e := &Engine{mech: mech, rng: rng, policy: PolicyGreedy, epsilon: 0.1}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Mechanism returns the mechanism the engine ranks with.
func (e *Engine) Mechanism() Mechanism { return e.mech }

// Rank scores every candidate for the consumer and returns them sorted
// best-first. Ties break lexicographically by service ID for determinism.
func (e *Engine) Rank(consumer ConsumerID, prefs qos.Preferences, cands []Candidate) []Ranked {
	if len(cands) == 0 {
		return nil
	}
	// Normalize advertised QoS across the candidate set (Liu-Ngu-Zeng).
	pop := make([]qos.Vector, 0, len(cands))
	for _, c := range cands {
		pop = append(pop, c.Advertised)
	}
	norm := qos.NewNormalizer(pop)
	return e.rankInto(&rankBuf{}, consumer, prefs, cands, norm, nil)
}

// rankBuf holds rankInto's buffers, reused across calls by a RankSession:
// the ranking it returns and the sort keys.
type rankBuf struct {
	rows []Ranked
	keys []rankKey
}

// rankKey is one row's sort key and the row's place before the sort.
type rankKey struct {
	score float64
	svc   ServiceID
	row   int
}

// rankInto scores cands and returns them best-first in b.rows, reusing
// b's capacity. normAdv, when non-nil, holds each candidate's pre-normalized
// advertised vector; otherwise vectors are normalized per call via norm.
func (e *Engine) rankInto(b *rankBuf, consumer ConsumerID, prefs qos.Preferences, cands []Candidate, norm *qos.Normalizer, normAdv []qos.Vector) []Ranked {
	scorer := prefs.Scorer()
	rows := slices.Grow(b.rows[:0], len(cands))
	keys := slices.Grow(b.keys[:0], len(cands))
	for i, c := range cands {
		tv, known := e.mech.Score(Query{
			Perspective: consumer,
			Subject:     c.Service,
			Context:     c.Context,
			Facet:       FacetOverall,
		})
		if !known {
			tv = TrustValue{Score: 0.5, Confidence: 0}
		}
		if e.providerBootstrap && tv.Confidence < 0.5 && c.Provider != "" {
			if ps, ok := e.mech.(ProviderScorer); ok {
				if pv, pok := ps.ScoreProvider(Query{
					Perspective: consumer,
					Subject:     c.Provider,
					Context:     c.Context,
					Facet:       FacetOverall,
				}); pok {
					tv = Blend(tv, pv)
					// Provider history is evidence: a brand-new service from
					// a known provider is not an unknown quantity — that is
					// the whole point of the Section-5 cold-start direction.
					known = true
				}
			}
		}
		var nv qos.Vector
		if normAdv != nil {
			nv = normAdv[i]
		} else {
			nv = norm.NormalizeVector(c.Advertised)
		}
		util := scorer.Utility(nv)
		score := e.combine(tv, util, known)
		rows = append(rows, Ranked{Candidate: c, Trust: tv.Clamp(), Utility: util, Score: score})
		keys = append(keys, rankKey{score, c.Service, i})
	}
	// Score descending, then service ID: a total order, since the UDDI keys
	// candidates by service. Sorting the small keys and then moving each
	// row once, cycle by cycle, beats sorting the 88-byte rows, which
	// slices.SortFunc passes by value.
	slices.SortFunc(keys, func(x, y rankKey) int {
		switch {
		case x.score > y.score:
			return -1
		case x.score < y.score:
			return 1
		}
		return strings.Compare(string(x.svc), string(y.svc))
	})
	for i := range keys {
		if keys[i].row == i {
			continue // never moved, or already placed
		}
		r, j := rows[i], i
		for keys[j].row != i {
			next := keys[j].row
			rows[j], keys[j].row = rows[next], j
			j = next
		}
		rows[j], keys[j].row = r, j
	}
	b.rows, b.keys = rows, keys
	return rows
}

// combine merges trust and advertised utility. Trust dominates as evidence
// accumulates; with no evidence the engine either falls back to the
// advertised utility (if configured) or stays neutral.
func (e *Engine) combine(tv TrustValue, util float64, known bool) float64 {
	conf := tv.Confidence
	base := 0.5
	if e.advertisedFallback {
		base = util
	}
	if !known {
		return base
	}
	return conf*tv.Score + (1-conf)*base
}

// Select ranks the candidates and applies the policy to choose one. It
// returns the chosen candidate and the full ranking. Select fails only on
// an empty candidate set.
func (e *Engine) Select(consumer ConsumerID, prefs qos.Preferences, cands []Candidate) (Ranked, []Ranked, error) {
	ranked := e.Rank(consumer, prefs, cands)
	if len(ranked) == 0 {
		return Ranked{}, nil, fmt.Errorf("core: no candidates to select from")
	}
	return ranked[e.pick(ranked)], ranked, nil
}

// pick applies the configured policy to a non-empty best-first ranking and
// returns the chosen index. It is the single place policies consume RNG
// draws, so Engine.Select and RankSession.Select stay bit-identical.
func (e *Engine) pick(ranked []Ranked) int {
	if e.policy == PolicyEpsilonGreedy && e.rng.Float64() < e.epsilon {
		return e.rng.Intn(len(ranked))
	}
	return 0
}

// RankSession amortizes ranking over repeated calls against the same
// candidate set: the QoS normalizer, each candidate's normalized advertised
// vector, and the output buffer are computed once and reused until the set
// changes. Per-call work drops to the trust queries plus the sort, and
// per-call allocations drop to (amortized) zero — the selection-loop hot
// path the experiments spend most of their time in.
//
// A session is bound to one Engine and, like the Engine, is not safe for
// concurrent use. Rankings returned by Rank/Select alias an internal buffer
// that the next Rank/Select call overwrites; copy them to retain.
type RankSession struct {
	engine  *Engine
	cands   []Candidate
	norm    *qos.Normalizer
	normAdv []qos.Vector
	buf     rankBuf
}

// NewRankSession prepares a session over cands (which may be nil or empty;
// install a real set later with SetCandidates).
func (e *Engine) NewRankSession(cands []Candidate) *RankSession {
	s := &RankSession{engine: e}
	s.SetCandidates(cands)
	return s
}

// SetCandidates installs the candidate set, recomputing the prepared state
// only when the set actually changed. Identity of the slice header (base
// pointer + length) is the change check, so callers that cache candidate
// slices — e.g. a registry view that returns the same slice until a
// publish — get the fast path for free. Callers that mutate candidates in
// place must pass a freshly built slice.
func (s *RankSession) SetCandidates(cands []Candidate) {
	if s.norm != nil && len(cands) == len(s.cands) &&
		(len(cands) == 0 || &cands[0] == &s.cands[0]) {
		return
	}
	s.cands = cands
	pop := make([]qos.Vector, 0, len(cands))
	for _, c := range cands {
		pop = append(pop, c.Advertised)
	}
	s.norm = qos.NewNormalizer(pop)
	s.normAdv = s.normAdv[:0]
	for _, c := range cands {
		s.normAdv = append(s.normAdv, s.norm.NormalizeVector(c.Advertised))
	}
}

// Candidates returns the currently installed candidate set.
func (s *RankSession) Candidates() []Candidate { return s.cands }

// Rank scores the prepared candidates for the consumer, sorted best-first;
// results are bit-identical to Engine.Rank on the same set. The returned
// slice is reused by the next Rank/Select call.
//
//lint:hotpath the selection-loop inner call; rankInto reuses s.buf, so steady-state allocations are zero.
func (s *RankSession) Rank(consumer ConsumerID, prefs qos.Preferences) []Ranked {
	if len(s.cands) == 0 {
		return nil
	}
	return s.engine.rankInto(&s.buf, consumer, prefs, s.cands, s.norm, s.normAdv)
}

// Select ranks the prepared candidates and applies the engine's policy,
// mirroring Engine.Select (same RNG draws, same choice). The returned
// ranking aliases the session buffer; see Rank.
//
//lint:hotpath selection-loop entry point; the only allocation is the empty-candidates error, which is cold.
func (s *RankSession) Select(consumer ConsumerID, prefs qos.Preferences) (Ranked, []Ranked, error) {
	ranked := s.Rank(consumer, prefs)
	if len(ranked) == 0 {
		return Ranked{}, nil, fmt.Errorf("core: no candidates to select from") //lint:hotalloc cold error path, hit only with an empty catalog
	}
	return ranked[s.engine.pick(ranked)], ranked, nil
}
