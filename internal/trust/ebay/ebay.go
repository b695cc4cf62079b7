// Package ebay implements the eBay-style feedback mechanism the survey
// uses as its canonical centralized / person-based / global example [7]:
// each transaction yields a +1, 0 or −1 rating; an entity's reputation is
// its cumulative score together with its fraction of positive feedback.
// Both come from integer tallies kept per service and per provider as
// ratings arrive. The mechanism is deliberately simple — that simplicity is
// exactly why the paper suggests it for web services that need no
// personalization ("some global reputation mechanisms that are simple and
// effective are also applicable to web service systems, like the one used
// in ebay").
package ebay

import (
	"fmt"
	"sync"

	"wstrust/internal/core"
)

// Thresholds mapping the framework's [0,1] ratings onto eBay's ternary
// feedback.
const (
	positiveAbove = 0.6
	negativeBelow = 0.4
)

// tally is a subject's streaming feedback aggregate. The counters are
// integers, so maintaining them at Submit time is bit-exact against a full
// history scan. Stored by value; updates never allocate.
type tally struct {
	pos, neg, total int
}

func (t *tally) add(v int) {
	t.total++
	switch {
	case v > 0:
		t.pos++
	case v < 0:
		t.neg++
	}
}

// Mechanism is the eBay feedback engine. Safe for concurrent use.
type Mechanism struct {
	mu      sync.Mutex
	counts  map[core.EntityID]tally // streaming aggregate per subject
	provCnt map[core.EntityID]tally // streaming aggregate per provider
}

var (
	_ core.Mechanism      = (*Mechanism)(nil)
	_ core.ProviderScorer = (*Mechanism)(nil)
)

// New builds an eBay-style mechanism.
func New() *Mechanism {
	return &Mechanism{
		counts:  map[core.EntityID]tally{},
		provCnt: map[core.EntityID]tally{},
	}
}

// Name implements core.Mechanism.
func (m *Mechanism) Name() string { return "ebay" }

// Ternary converts a [0,1] rating into eBay feedback: +1 / 0 / −1.
func Ternary(v float64) int {
	switch {
	case v > positiveAbove:
		return 1
	case v < negativeBelow:
		return -1
	default:
		return 0
	}
}

// Submit implements core.Mechanism.
func (m *Mechanism) Submit(fb core.Feedback) error {
	if err := fb.Validate(); err != nil {
		return fmt.Errorf("ebay: %w", err)
	}
	v := Ternary(fb.Overall())
	m.mu.Lock()
	defer m.mu.Unlock()
	m.noteSubmitLocked(fb.Service, fb.Provider, v)
	return nil
}

// noteSubmitLocked maintains the streaming tallies for one rating — the
// per-rating steady path; tally values live in the maps by value, so an
// update on a known subject never allocates.
//
//lint:hotpath
func (m *Mechanism) noteSubmitLocked(service, provider core.EntityID, v int) {
	t := m.counts[service]
	t.add(v)
	m.counts[service] = t
	if provider != "" {
		p := m.provCnt[provider]
		p.add(v)
		m.provCnt[provider] = p
	}
}

// FeedbackScore returns the classic cumulative eBay number
// (#positive − #negative) over all history for the subject — O(1) from
// the streaming tally.
func (m *Mechanism) FeedbackScore(subject core.EntityID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.counts[subject]
	return t.pos - t.neg
}

// Score implements core.Mechanism: the positive fraction as score,
// evidence volume as confidence. eBay is global — Perspective, Context and
// Facet are ignored, which is precisely its limitation in the typology.
func (m *Mechanism) Score(q core.Query) (core.TrustValue, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return scoreTally(m.counts[q.Subject])
}

// ScoreProvider implements core.ProviderScorer: eBay reputation is
// fundamentally about the trading partner, i.e. the provider.
func (m *Mechanism) ScoreProvider(q core.Query) (core.TrustValue, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return scoreTally(m.provCnt[q.Subject])
}

// scoreTally answers from the streaming counters.
func scoreTally(t tally) (core.TrustValue, bool) {
	if t.total == 0 {
		return core.TrustValue{Score: 0.5, Confidence: 0}, false
	}
	if t.pos+t.neg == 0 {
		// Only neutrals: known subject, uninformative record.
		return core.TrustValue{Score: 0.5, Confidence: 0}, true
	}
	score := float64(t.pos) / float64(t.pos+t.neg)
	conf := float64(t.total) / float64(t.total+5)
	return core.TrustValue{Score: score, Confidence: conf}, true
}
