package subjective

import (
	"fmt"
	"sort"
	"sync"

	"wstrust/internal/core"
)

// evidence is a positive/negative evidence pair feeding FromEvidence.
type evidence struct{ r, s float64 }

// key scopes evidence to one subject on one facet.
type key struct {
	subject core.EntityID
	facet   core.Facet
}

// Mechanism wires the operator library into the framework's contract: each
// consumer's feedback accumulates per-subject evidence, queries map the
// evidence onto opinions, referrals flow through Discount with advisor
// trust learned from rating agreement, and independent opinions fuse via
// Consensus. It is the paper's Section-3 transitivity story ("Alice trusts
// her doctor and her doctor trusts an eye specialist") run as a mechanism:
// centralized store, rating-based, personalized per perspective. Scores are
// pure functions of the evidence log, so the mechanism is trivially
// replayable. Safe for concurrent use.
type Mechanism struct {
	mu     sync.Mutex
	direct map[core.ConsumerID]map[key]evidence
}

var _ core.Mechanism = (*Mechanism)(nil)

// NewMechanism builds an empty evidence store.
func NewMechanism() *Mechanism {
	return &Mechanism{direct: map[core.ConsumerID]map[key]evidence{}}
}

// Name implements core.Mechanism.
func (m *Mechanism) Name() string { return "subjective" }

// Submit implements core.Mechanism: the overall verdict and every facet
// rating become evidence pairs — a rating v adds v positive and 1−v
// negative evidence, the continuous generalization of counting outcomes.
func (m *Mechanism) Submit(fb core.Feedback) error {
	if err := fb.Validate(); err != nil {
		return fmt.Errorf("subjective: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	row, ok := m.direct[fb.Consumer]
	if !ok {
		row = map[key]evidence{}
		m.direct[fb.Consumer] = row
	}
	add := func(f core.Facet, v float64) {
		k := key{subject: core.EntityID(fb.Service), facet: f}
		e := row[k]
		e.r += v
		e.s += 1 - v
		row[k] = e
	}
	add(core.FacetOverall, fb.Overall())
	for _, f := range core.SortedFacets(fb.Ratings) {
		if f != core.FacetOverall {
			add(f, fb.Ratings[f])
		}
	}
	return nil
}

// Score implements core.Mechanism. The global view fuses every rater's
// opinion with Consensus. A personalized query builds the perspective's
// direct opinion and fuses it with referrals: each other rater's opinion
// discounted by the perspective's trust in them as an advisor, which is
// itself an opinion formed from how well their past ratings agreed.
func (m *Mechanism) Score(q core.Query) (core.TrustValue, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	facet := q.Facet
	if facet == "" {
		facet = core.FacetOverall
	}
	k := key{subject: q.Subject, facet: facet}
	raters := m.ratersOf(k)
	if len(raters) == 0 {
		return core.TrustValue{Score: 0.5, Confidence: 0}, false
	}
	if q.Perspective == "" {
		ops := make([]Opinion, 0, len(raters))
		for _, r := range raters {
			e := m.direct[r][k]
			ops = append(ops, FromEvidence(e.r, e.s))
		}
		return FuseAll(ops...).TrustValue(), true
	}
	var referrals []Opinion
	hasDirect := false
	var direct Opinion
	for _, r := range raters {
		e := m.direct[r][k]
		op := FromEvidence(e.r, e.s)
		if r == q.Perspective {
			direct, hasDirect = op, true
			continue
		}
		referrals = append(referrals, Discount(m.advisorOpinion(q.Perspective, r), op))
	}
	fused := FuseAll(referrals...)
	if hasDirect {
		fused = Consensus(direct, fused)
	}
	return fused.TrustValue(), true
}

// ratersOf lists consumers holding evidence under the key, sorted so
// every fold below runs in a process-independent order.
func (m *Mechanism) ratersOf(k key) []core.ConsumerID {
	var out []core.ConsumerID
	for c, row := range m.direct {
		if e, ok := row[k]; ok && e.r+e.s > 0 {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// advisorOpinion derives a's trust in advisor b from rating agreement:
// every key both have judged contributes 1−|Eₐ−E_b| positive evidence.
// With no co-rated subjects the opinion is vacuous, so the discounted
// referral carries full uncertainty rather than unearned weight.
func (m *Mechanism) advisorOpinion(a, b core.ConsumerID) Opinion {
	common := make([]key, 0, 4)
	for k := range m.direct[a] {
		if _, ok := m.direct[b][k]; ok {
			common = append(common, k)
		}
	}
	if len(common) == 0 {
		return Vacuous()
	}
	sort.Slice(common, func(i, j int) bool {
		if common[i].subject != common[j].subject {
			return common[i].subject < common[j].subject
		}
		return common[i].facet < common[j].facet
	})
	var ev evidence
	for _, k := range common {
		ea, eb := m.direct[a][k], m.direct[b][k]
		agree := 1 - absf(FromEvidence(ea.r, ea.s).Expectation()-FromEvidence(eb.r, eb.s).Expectation())
		ev.r += agree
		ev.s += 1 - agree
	}
	return FromEvidence(ev.r, ev.s)
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
