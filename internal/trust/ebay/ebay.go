// Package ebay implements the eBay-style feedback mechanism the survey
// uses as its canonical centralized / person-based / global example [7]:
// each transaction yields a +1, 0 or −1 rating; an entity's reputation is
// its cumulative score together with the fraction of positive feedback in a
// recent window. The mechanism is deliberately simple — that simplicity is
// exactly why the paper suggests it for web services that need no
// personalization ("some global reputation mechanisms that are simple and
// effective are also applicable to web service systems, like the one used
// in ebay").
package ebay

import (
	"fmt"
	"sync"
	"time"

	"wstrust/internal/core"
)

// Thresholds mapping the framework's [0,1] ratings onto eBay's ternary
// feedback.
const (
	positiveAbove = 0.6
	negativeBelow = 0.4
)

// Option configures the mechanism.
type Option func(*Mechanism)

// WithWindow restricts the positive-fraction computation to feedback newer
// than the window (eBay's "recent 12 months" panel). Zero (default) means
// all history.
func WithWindow(w time.Duration) Option { return func(m *Mechanism) { m.window = w } }

type entry struct {
	value int // +1, 0, −1
	at    time.Time
}

// tally is a subject's streaming feedback aggregate. The counters are
// integers, so maintaining them at Submit time is bit-exact against a full
// history scan — which is why the all-history (window == 0) score path
// uses them unconditionally; only windowed scoring keeps and walks the
// log. Stored by value; updates never allocate.
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
	window time.Duration

	mu      sync.Mutex
	history map[core.EntityID][]entry // per subject (service); kept only when windowed
	byProv  map[core.EntityID][]entry // per provider; kept only when windowed
	counts  map[core.EntityID]tally   // streaming aggregate per subject
	provCnt map[core.EntityID]tally   // streaming aggregate per provider
}

var (
	_ core.Mechanism      = (*Mechanism)(nil)
	_ core.ProviderScorer = (*Mechanism)(nil)
)

// New builds an eBay-style mechanism.
func New(opts ...Option) *Mechanism {
	m := &Mechanism{
		history: map[core.EntityID][]entry{},
		byProv:  map[core.EntityID][]entry{},
		counts:  map[core.EntityID]tally{},
		provCnt: map[core.EntityID]tally{},
	}
	for _, opt := range opts {
		opt(m)
	}
	return m
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
	e := entry{value: Ternary(fb.Overall()), at: fb.At}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.noteSubmitLocked(fb.Service, fb.Provider, e.value)
	if m.window == 0 {
		return nil
	}
	m.history[fb.Service] = append(m.history[fb.Service], e)
	if fb.Provider != "" {
		m.byProv[fb.Provider] = append(m.byProv[fb.Provider], e)
	}
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

// Score implements core.Mechanism: the positive fraction within the window
// as score, evidence volume as confidence. eBay is global — Perspective,
// Context and Facet are ignored, which is precisely its limitation in the
// typology.
func (m *Mechanism) Score(q core.Query) (core.TrustValue, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.window == 0 {
		return scoreTally(m.counts[q.Subject])
	}
	return m.scoreOf(m.history[q.Subject])
}

// ScoreProvider implements core.ProviderScorer: eBay reputation is
// fundamentally about the trading partner, i.e. the provider.
func (m *Mechanism) ScoreProvider(q core.Query) (core.TrustValue, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.window == 0 {
		return scoreTally(m.provCnt[q.Subject])
	}
	return m.scoreOf(m.byProv[q.Subject])
}

// scoreTally answers from the streaming counters — same integers a full
// scan would count, so the resulting floats are bit-identical.
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

func (m *Mechanism) scoreOf(entries []entry) (core.TrustValue, bool) {
	if len(entries) == 0 {
		return core.TrustValue{Score: 0.5, Confidence: 0}, false
	}
	var cutoff time.Time
	if m.window > 0 {
		cutoff = entries[len(entries)-1].at.Add(-m.window)
	}
	pos, neg, total := 0, 0, 0
	for _, e := range entries {
		if m.window > 0 && e.at.Before(cutoff) {
			continue
		}
		total++
		switch {
		case e.value > 0:
			pos++
		case e.value < 0:
			neg++
		}
	}
	if pos+neg == 0 {
		// Only neutrals in the window: known subject, uninformative record.
		return core.TrustValue{Score: 0.5, Confidence: 0}, true
	}
	score := float64(pos) / float64(pos+neg)
	conf := float64(total) / float64(total+5)
	return core.TrustValue{Score: score, Confidence: conf}, true
}
