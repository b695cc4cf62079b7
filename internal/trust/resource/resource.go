// Package resource implements the two canonical centralized / resource /
// global reputation systems from the survey's Figure 4: Amazon-style mean
// product ratings [2] (with Bayesian shrinkage toward the population prior,
// so a product with one 5-star review does not top the charts) and
// Epinions-style review weighting [8], where reviews themselves are rated
// for helpfulness and a reviewer's accumulated helpfulness weights their
// future ratings.
package resource

import (
	"fmt"
	"sync"

	"wstrust/internal/core"
)

// priorWeight is how many pseudo-ratings of the global mean each subject
// starts with (Bayesian shrinkage strength).
const priorWeight = 5

// Amazon is the shrunken-mean resource reputation mechanism. Safe for
// concurrent use.
type Amazon struct {
	mu   sync.Mutex
	sum  map[core.EntityID]float64
	n    map[core.EntityID]float64
	gSum float64
	gN   float64

	// Every submit moves the global prior, so per-subject scores are
	// epoch-cached with whole-generation invalidation.
	epoch core.Epoch                                 // guarded by mu
	memo  core.KeyedMemo[core.EntityID, scoreResult] // guarded by mu
}

// scoreResult caches one Score outcome, including the unknown-subject miss.
type scoreResult struct {
	tv core.TrustValue
	ok bool
}

var _ core.Mechanism = (*Amazon)(nil)

// NewAmazon builds the mechanism.
func NewAmazon() *Amazon {
	return &Amazon{
		sum: map[core.EntityID]float64{},
		n:   map[core.EntityID]float64{},
	}
}

// Name implements core.Mechanism.
func (a *Amazon) Name() string { return "amazon" }

// Submit implements core.Mechanism.
func (a *Amazon) Submit(fb core.Feedback) error {
	if err := fb.Validate(); err != nil {
		return fmt.Errorf("amazon: %w", err)
	}
	v := fb.Overall()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sum[fb.Service] += v
	a.n[fb.Service]++
	a.gSum += v
	a.gN++
	a.epoch.Bump()
	return nil
}

// Score implements core.Mechanism: the Bayesian-shrunken mean rating.
func (a *Amazon) Score(q core.Query) (core.TrustValue, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.memo.Get(&a.epoch, q.Subject, func() scoreResult { return a.scoreLocked(q.Subject) })
	return r.tv, r.ok
}

func (a *Amazon) scoreLocked(subject core.EntityID) scoreResult {
	n := a.n[subject]
	if n == 0 {
		return scoreResult{core.TrustValue{Score: 0.5, Confidence: 0}, false}
	}
	prior := 0.5
	if a.gN > 0 {
		prior = a.gSum / a.gN
	}
	score := (a.sum[subject] + priorWeight*prior) / (n + priorWeight)
	return scoreResult{core.TrustValue{Score: score, Confidence: n / (n + priorWeight)}, true}
}

// Epinions weights each rating by its author's helpfulness reputation,
// which other members build by rating reviews. Safe for concurrent use.
type Epinions struct {
	mu sync.Mutex
	// ratings[subject] are (reviewer, value) pairs.
	ratings map[core.EntityID][]review
	// helpful/total votes per reviewer.
	helpful map[core.ConsumerID]float64
	votes   map[core.ConsumerID]float64

	// A new review drops just its subject's cached score; a helpfulness
	// vote reweights every review, so it advances the epoch instead.
	voteEpoch core.Epoch                                 // guarded by mu
	memo      core.KeyedMemo[core.EntityID, scoreResult] // guarded by mu
}

type review struct {
	reviewer core.ConsumerID
	value    float64
}

var _ core.Mechanism = (*Epinions)(nil)

// NewEpinions builds the mechanism.
func NewEpinions() *Epinions {
	return &Epinions{
		ratings: map[core.EntityID][]review{},
		helpful: map[core.ConsumerID]float64{},
		votes:   map[core.ConsumerID]float64{},
	}
}

// Name implements core.Mechanism.
func (e *Epinions) Name() string { return "epinions" }

// Submit implements core.Mechanism: the feedback is a review of the
// service by its consumer.
func (e *Epinions) Submit(fb core.Feedback) error {
	if err := fb.Validate(); err != nil {
		return fmt.Errorf("epinions: %w", err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ratings[fb.Service] = append(e.ratings[fb.Service], review{fb.Consumer, fb.Overall()})
	e.memo.Drop(fb.Service)
	return nil
}

// RateReview records a helpfulness vote on reviewer's reviews — Epinions'
// "rate the review" loop that makes reviewers themselves reputation
// subjects.
func (e *Epinions) RateReview(reviewer core.ConsumerID, isHelpful bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.votes[reviewer]++
	if isHelpful {
		e.helpful[reviewer]++
	}
	e.voteEpoch.Bump()
}

// reviewerWeight is the Beta-mean helpfulness of a reviewer; a reviewer
// with no votes gets the neutral prior 0.5.
func (e *Epinions) reviewerWeight(r core.ConsumerID) float64 {
	return (e.helpful[r] + 1) / (e.votes[r] + 2)
}

// Score implements core.Mechanism: the helpfulness-weighted mean rating.
func (e *Epinions) Score(q core.Query) (core.TrustValue, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.memo.Get(&e.voteEpoch, q.Subject, func() scoreResult { return e.scoreLocked(q.Subject) })
	return r.tv, r.ok
}

func (e *Epinions) scoreLocked(subject core.EntityID) scoreResult {
	rs := e.ratings[subject]
	if len(rs) == 0 {
		return scoreResult{core.TrustValue{Score: 0.5, Confidence: 0}, false}
	}
	var num, den float64
	for _, r := range rs {
		w := e.reviewerWeight(r.reviewer)
		num += w * r.value
		den += w
	}
	if den == 0 {
		return scoreResult{core.TrustValue{Score: 0.5, Confidence: 0}, true}
	}
	n := float64(len(rs))
	return scoreResult{core.TrustValue{Score: num / den, Confidence: n / (n + 5)}, true}
}
