package ebay_test

import (
	"math"
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/trust/ebay"
	"wstrust/internal/trust/trusttest"
)

// scan is the history scan the streaming tallies replaced, kept as a
// test-side reference: it logs the ternary value of every rating and
// answers by counting the log.
type scan map[core.EntityID][]int

func (s scan) score(subject core.EntityID) (core.TrustValue, bool) {
	values := s[subject]
	if len(values) == 0 {
		return core.TrustValue{Score: 0.5, Confidence: 0}, false
	}
	pos, neg := 0, 0
	for _, v := range values {
		switch {
		case v > 0:
			pos++
		case v < 0:
			neg++
		}
	}
	if pos+neg == 0 {
		return core.TrustValue{Score: 0.5, Confidence: 0}, true
	}
	total := len(values)
	return core.TrustValue{
		Score:      float64(pos) / float64(pos+neg),
		Confidence: float64(total) / float64(total+5),
	}, true
}

// TestTallyMatchesScan proves the streaming counters answer exactly what
// a scan of the whole history answers: every service and provider score
// must match the reference bit for bit.
func TestTallyMatchesScan(t *testing.T) {
	s := trusttest.Market(59, 10, 7, 10, 0.6)
	m := ebay.New()
	bySubject, byProvider := scan{}, scan{}
	for i, fb := range s.Feedbacks {
		if err := m.Submit(fb); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		v := ebay.Ternary(fb.Overall())
		bySubject[core.EntityID(fb.Service)] = append(bySubject[core.EntityID(fb.Service)], v)
		byProvider[core.EntityID(fb.Provider)] = append(byProvider[core.EntityID(fb.Provider)], v)
	}
	same := func(a, b core.TrustValue) bool {
		return math.Float64bits(a.Score) == math.Float64bits(b.Score) &&
			math.Float64bits(a.Confidence) == math.Float64bits(b.Confidence)
	}
	for qi, q := range s.Queries {
		tv, tok := m.Score(q)
		sv, sok := bySubject.score(q.Subject)
		if tok != sok || !same(tv, sv) {
			t.Fatalf("query %d (%+v): tally=%+v ok=%v scan=%+v ok=%v", qi, q, tv, tok, sv, sok)
		}
	}
	for p := 'a'; p < 'a'+7; p++ {
		q := core.Query{Subject: core.EntityID("p" + string(p))}
		tv, tok := m.ScoreProvider(q)
		sv, sok := byProvider.score(q.Subject)
		if tok != sok || !same(tv, sv) {
			t.Fatalf("provider %s: tally=%+v ok=%v scan=%+v ok=%v", q.Subject, tv, tok, sv, sok)
		}
	}
}

// TestFeedbackScoreStreaming pins the O(1) cumulative number against a
// hand-maintained ledger.
func TestFeedbackScoreStreaming(t *testing.T) {
	m := ebay.New()
	want := map[core.EntityID]int{}
	s := trusttest.Market(61, 8, 5, 8, 0.6)
	for i, fb := range s.Feedbacks {
		if err := m.Submit(fb); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		want[core.EntityID(fb.Service)] += ebay.Ternary(fb.Overall())
	}
	for subject, w := range want {
		if got := m.FeedbackScore(subject); got != w {
			t.Fatalf("FeedbackScore(%s) = %d, want %d", subject, got, w)
		}
	}
}
