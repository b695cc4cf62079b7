// Package bayesnet implements the Bayesian-network trust model of Wang &
// Vassileva [30,31] — the survey authors' own decentralized / personalized
// system, covering both persons and resources. Each consumer agent
// maintains, per provider/service, a naive Bayesian network whose root is
// the binary variable T ("the partner is competent") and whose leaves are
// QoS facets; conditional probability tables are learned from the agent's
// own interactions. An agent can answer differentiated queries — overall
// competence, or competence *in a specific facet* such as download speed
// versus file quality in the original P2P file-sharing setting.
//
// When an agent lacks direct experience it asks other agents for their
// estimates and weighs each recommender by a learned recommendation trust:
// a Beta model updated by comparing past recommendations with the agent's
// own subsequent experience.
package bayesnet

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"wstrust/internal/core"
	"wstrust/internal/p2p"
)

// sufficiency is how many direct interactions make an agent skip
// recommendations.
const sufficiency = 5

// highAt is the facet value above which an observation counts as "high"
// in the CPTs.
const highAt = 0.5

// netModel is one agent's naive Bayes net about one subject.
type netModel struct {
	// tCount[1] interactions judged satisfactory overall, tCount[0] not.
	tCount [2]float64
	// cpt[class][facet] counts of high-valued facet observations; lows are
	// (tCount[class] − highs).
	highs [2]map[core.Facet]float64
	n     float64
}

func newNetModel() *netModel {
	return &netModel{highs: [2]map[core.Facet]float64{{}, {}}}
}

// observe folds one interaction into the network.
func (nm *netModel) observe(overall float64, facets map[core.Facet]float64) {
	class := 0
	if overall > 0.5 {
		class = 1
	}
	nm.tCount[class]++
	nm.n++
	for f, v := range facets {
		if f == core.FacetOverall {
			continue
		}
		if v > highAt {
			nm.highs[class][f]++
		}
	}
}

// posterior returns P(T=1), optionally conditioned on facet=high.
func (nm *netModel) posterior(facet core.Facet) float64 {
	total := nm.tCount[0] + nm.tCount[1]
	if total == 0 {
		return 0.5
	}
	pT := (nm.tCount[1] + 1) / (total + 2)
	if facet == "" || facet == core.FacetOverall {
		return pT
	}
	// P(T=1 | facet=high) ∝ P(high|T=1)·P(T=1).
	likeT := (nm.highs[1][facet] + 1) / (nm.tCount[1] + 2)
	likeF := (nm.highs[0][facet] + 1) / (nm.tCount[0] + 2)
	num := likeT * pT
	den := num + likeF*(1-pT)
	if den == 0 {
		return 0.5
	}
	return num / den
}

// agent is one consumer's models plus recommendation-trust table.
type agent struct {
	mu     sync.Mutex
	models map[core.EntityID]*netModel
	// recTrust tracks (hits, misses) per recommender.
	recHit, recMiss map[core.ConsumerID]float64
	// pending holds recommendations awaiting confirmation by direct
	// experience: subject → recommender → recommended score.
	pending map[core.EntityID]map[core.ConsumerID]float64
}

func newAgent() *agent {
	return &agent{
		models:  map[core.EntityID]*netModel{},
		recHit:  map[core.ConsumerID]float64{},
		recMiss: map[core.ConsumerID]float64{},
		pending: map[core.EntityID]map[core.ConsumerID]float64{},
	}
}

// notePending records a recommendation for confirmation by the agent's
// next direct experience with subject. A Submit that settles the subject
// deletes its entry, so the entry is looked up, and recreated if gone,
// under the same lock as the write.
func (a *agent) notePending(subject core.EntityID, r recommendation) {
	a.mu.Lock()
	defer a.mu.Unlock()
	recs := a.pending[subject]
	if recs == nil {
		recs = map[core.ConsumerID]float64{}
		a.pending[subject] = recs
	}
	recs[r.from] = r.value
}

func (a *agent) recWeight(r core.ConsumerID) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return (a.recHit[r] + 1) / (a.recHit[r] + a.recMiss[r] + 2)
}

// Mechanism is the Wang-Vassileva trust engine. Safe for concurrent use.
type Mechanism struct {
	net *p2p.Network

	mu     sync.Mutex
	agents map[core.ConsumerID]*agent
	counts map[core.EntityID]float64
}

var (
	_ core.Mechanism    = (*Mechanism)(nil)
	_ core.CostReporter = (*Mechanism)(nil)
)

// New builds the mechanism. net carries recommendation exchanges and may
// not be nil — the model is decentralized by construction.
func New(net *p2p.Network) *Mechanism {
	if net == nil {
		panic("bayesnet: nil network")
	}
	return &Mechanism{
		net:    net,
		agents: map[core.ConsumerID]*agent{},
		counts: map[core.EntityID]float64{},
	}
}

// Name implements core.Mechanism.
func (m *Mechanism) Name() string { return "wang-vassileva" }

func (m *Mechanism) ensureAgent(c core.ConsumerID) *agent {
	m.mu.Lock()
	defer m.mu.Unlock()
	ag, ok := m.agents[c]
	if !ok {
		ag = newAgent()
		m.agents[c] = ag
		agRef := ag
		m.net.Join(p2p.NodeID(c), func(_ p2p.NodeID, kind string, payload any) any {
			if kind != "bn.recommend" {
				return nil
			}
			subject := payload.(core.EntityID)
			agRef.mu.Lock()
			defer agRef.mu.Unlock()
			model, ok := agRef.models[subject]
			if !ok || model.n == 0 {
				return nil
			}
			return model.posterior("")
		})
	}
	return ag
}

// Submit implements core.Mechanism: the interaction trains the consumer's
// own network and settles pending recommendations about the subject.
func (m *Mechanism) Submit(fb core.Feedback) error {
	if err := fb.Validate(); err != nil {
		return fmt.Errorf("bayesnet: %w", err)
	}
	ag := m.ensureAgent(fb.Consumer)
	overall := fb.Overall()
	ag.mu.Lock()
	model, ok := ag.models[fb.Service]
	if !ok {
		model = newNetModel()
		ag.models[fb.Service] = model
	}
	model.observe(overall, fb.Ratings)
	// Settle pending recommendations: a recommender was right when its
	// recommendation sat on the same side of 0.5 as the outcome.
	if recs, has := ag.pending[fb.Service]; has {
		outcomeGood := overall > 0.5
		for rec, val := range recs {
			if (val > 0.5) == outcomeGood {
				ag.recHit[rec]++
			} else {
				ag.recMiss[rec]++
			}
		}
		delete(ag.pending, fb.Service)
	}
	ag.mu.Unlock()

	m.mu.Lock()
	m.counts[fb.Service]++
	m.mu.Unlock()
	return nil
}

// Score implements core.Mechanism. Facet queries condition the Bayesian
// network on that facet. With thin direct evidence the agent gathers
// recommendations over the network, weighted by learned recommendation
// trust.
func (m *Mechanism) Score(q core.Query) (core.TrustValue, bool) {
	m.mu.Lock()
	known := m.counts[q.Subject] > 0
	m.mu.Unlock()
	if !known {
		return core.TrustValue{Score: 0.5, Confidence: 0}, false
	}
	if q.Perspective == "" {
		return m.globalMean(q.Subject, q.Facet), true
	}
	ag := m.ensureAgent(q.Perspective)
	ag.mu.Lock()
	model, hasModel := ag.models[q.Subject]
	var direct float64
	var directN float64
	if hasModel {
		direct = model.posterior(q.Facet)
		directN = model.n
	}
	ag.mu.Unlock()
	if directN >= sufficiency {
		return core.TrustValue{Score: direct, Confidence: directN / (directN + 2)}, true
	}

	// Gather recommendations from every other agent over the network.
	recs := m.gatherRecommendations(q.Perspective, q.Subject)
	var num, den float64
	if directN > 0 {
		w := directN
		num += w * direct
		den += w
	}
	for _, r := range recs {
		w := ag.recWeight(r.from)
		num += w * r.value
		den += w
		ag.notePending(q.Subject, r)
	}
	if den == 0 {
		return core.TrustValue{Score: 0.5, Confidence: 0}, true
	}
	return core.TrustValue{
		Score:      math.Max(0, math.Min(1, num/den)),
		Confidence: den / (den + 3),
	}, true
}

type recommendation struct {
	from  core.ConsumerID
	value float64
}

func (m *Mechanism) gatherRecommendations(asker core.ConsumerID, subject core.EntityID) []recommendation {
	m.mu.Lock()
	others := make([]core.ConsumerID, 0, len(m.agents))
	for id := range m.agents {
		if id != asker {
			others = append(others, id)
		}
	}
	m.mu.Unlock()
	sort.Slice(others, func(i, j int) bool { return others[i] < others[j] })
	var out []recommendation
	for _, other := range others {
		reply, err := m.net.Send(p2p.NodeID(asker), p2p.NodeID(other), "bn.recommend", subject)
		if err != nil {
			continue
		}
		if v, ok := reply.(float64); ok {
			out = append(out, recommendation{other, v})
		}
	}
	return out
}

func (m *Mechanism) globalMean(subject core.EntityID, facet core.Facet) core.TrustValue {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum, n float64
	ids := make([]core.ConsumerID, 0, len(m.agents))
	for id := range m.agents {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		ag := m.agents[id]
		ag.mu.Lock()
		if model, ok := ag.models[subject]; ok && model.n > 0 {
			sum += model.posterior(facet)
			n++
		}
		ag.mu.Unlock()
	}
	if n == 0 {
		return core.TrustValue{Score: 0.5, Confidence: 0}
	}
	return core.TrustValue{Score: sum / n, Confidence: n / (n + 3)}
}

// RecommendationTrust exposes the learned recommender weight, for tests
// and experiments.
func (m *Mechanism) RecommendationTrust(owner, recommender core.ConsumerID) float64 {
	return m.ensureAgent(owner).recWeight(recommender)
}

// MessageCount implements core.CostReporter.
func (m *Mechanism) MessageCount() int64 { return m.net.MessageCount() }
