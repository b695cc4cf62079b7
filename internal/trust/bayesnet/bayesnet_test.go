package bayesnet

import (
	"sync"
	"sync/atomic"
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/p2p"
	"wstrust/internal/qos"
	"wstrust/internal/simclock"
)

func fb(c core.ConsumerID, s core.ServiceID, overall float64, facets map[core.Facet]float64) core.Feedback {
	r := map[core.Facet]float64{core.FacetOverall: overall}
	for f, v := range facets {
		r[f] = v
	}
	return core.Feedback{Consumer: c, Service: s, Ratings: r, At: simclock.Epoch}
}

func TestDirectPosterior(t *testing.T) {
	m := New(p2p.NewNetwork())
	for i := 0; i < 10; i++ {
		_ = m.Submit(fb("c001", "s-good", 1, nil))
		_ = m.Submit(fb("c001", "s-bad", 0, nil))
	}
	good, ok := m.Score(core.Query{Perspective: "c001", Subject: "s-good"})
	if !ok {
		t.Fatal("unknown")
	}
	bad, _ := m.Score(core.Query{Perspective: "c001", Subject: "s-bad"})
	if good.Score <= 0.8 || bad.Score >= 0.2 {
		t.Fatalf("posteriors wrong: good=%g bad=%g", good.Score, bad.Score)
	}
}

func TestFacetConditionedQuery(t *testing.T) {
	// The service is competent when judged on speed, incompetent on
	// accuracy: interactions with high speed tend to be satisfying, ones
	// with high accuracy do not (they correlate with failures here).
	m := New(p2p.NewNetwork())
	for i := 0; i < 15; i++ {
		_ = m.Submit(fb("c001", "s001", 1, map[core.Facet]float64{qos.ResponseTime: 0.9, qos.Accuracy: 0.1}))
		_ = m.Submit(fb("c001", "s001", 0, map[core.Facet]float64{qos.ResponseTime: 0.1, qos.Accuracy: 0.9}))
	}
	speed, _ := m.Score(core.Query{Perspective: "c001", Subject: "s001", Facet: qos.ResponseTime})
	acc, _ := m.Score(core.Query{Perspective: "c001", Subject: "s001", Facet: qos.Accuracy})
	if speed.Score <= 0.6 || acc.Score >= 0.4 {
		t.Fatalf("facet conditioning failed: speed=%g accuracy=%g", speed.Score, acc.Score)
	}
}

func TestRecommendationsWhenInexperienced(t *testing.T) {
	net := p2p.NewNetwork()
	m := New(net)
	// Other agents know the service well.
	for i := 2; i <= 6; i++ {
		c := core.NewConsumerID(i)
		for j := 0; j < 8; j++ {
			_ = m.Submit(fb(c, "s001", 1, nil))
		}
	}
	before := m.MessageCount()
	tv, ok := m.Score(core.Query{Perspective: "c001", Subject: "s001"})
	if !ok {
		t.Fatal("unknown")
	}
	if tv.Score <= 0.7 {
		t.Fatalf("recommendations ignored: %g", tv.Score)
	}
	if m.MessageCount() <= before {
		t.Fatal("recommendation gathering cost no messages")
	}
}

func TestRecommendationTrustLearning(t *testing.T) {
	m := New(p2p.NewNetwork())
	// truthful recommends correctly (service is good), liar recommends 0.
	for j := 0; j < 8; j++ {
		_ = m.Submit(fb("truthful", "s001", 1, nil))
		_ = m.Submit(fb("liar", "s001", 0, nil)) // liar's model says bad
	}
	// c001 asks (gathers both recommendations)...
	if _, ok := m.Score(core.Query{Perspective: "c001", Subject: "s001"}); !ok {
		t.Fatal("score failed")
	}
	// ...then experiences the service as good, settling rec trust.
	_ = m.Submit(fb("c001", "s001", 1, nil))
	ht := m.RecommendationTrust("c001", "truthful")
	lt := m.RecommendationTrust("c001", "liar")
	if ht <= lt {
		t.Fatalf("recommendation trust not learned: truthful=%g liar=%g", ht, lt)
	}
}

func TestDirectSufficiencySkipsNetwork(t *testing.T) {
	net := p2p.NewNetwork()
	m := New(net)
	for j := 0; j < 5; j++ { // the 5 direct interactions that suffice
		_ = m.Submit(fb("c001", "s001", 1, nil))
		_ = m.Submit(fb("other", "s001", 0, nil))
	}
	before := m.MessageCount()
	tv, _ := m.Score(core.Query{Perspective: "c001", Subject: "s001"})
	if m.MessageCount() != before {
		t.Fatal("sufficient direct experience still asked the network")
	}
	if tv.Score <= 0.7 {
		t.Fatalf("direct posterior diluted: %g", tv.Score)
	}
}

func TestGlobalMean(t *testing.T) {
	m := New(p2p.NewNetwork())
	for j := 0; j < 5; j++ {
		_ = m.Submit(fb("c001", "s001", 1, nil))
		_ = m.Submit(fb("c002", "s001", 0, nil))
	}
	tv, ok := m.Score(core.Query{Subject: "s001"})
	if !ok {
		t.Fatal("unknown")
	}
	if tv.Score < 0.3 || tv.Score > 0.7 {
		t.Fatalf("global mean = %g, want middling", tv.Score)
	}
}

func TestUnknownInvalidReset(t *testing.T) {
	m := New(p2p.NewNetwork())
	if _, ok := m.Score(core.Query{Subject: "s-x"}); ok {
		t.Fatal("unknown subject known")
	}
	if err := m.Submit(core.Feedback{}); err == nil {
		t.Fatal("invalid feedback accepted")
	}
}

// TestScoreRacesSettlingSubmit runs an asker's personalized Score, which
// records every recommendation it gathered as pending, against the
// asker's own Submits of the same subject, each of which settles and
// deletes that pending entry. The asker moves to a new subject after 4
// Submits, short of the 5 direct interactions that would let Score skip
// recommendations, and the scorer follows it.
func TestScoreRacesSettlingSubmit(t *testing.T) {
	const raters, subjects, perSubject = 32, 2000, 4
	m := New(p2p.NewNetwork())
	for s := 0; s < subjects; s++ {
		for i := 0; i < raters; i++ {
			if err := m.Submit(fb(core.NewConsumerID(i), core.NewServiceID(s), 0.9, nil)); err != nil {
				t.Fatal(err)
			}
		}
	}
	const asker = core.ConsumerID("asker")
	var cur atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				m.Score(core.Query{Perspective: asker, Subject: core.NewServiceID(int(cur.Load()))})
			}
		}
	}()
	for s := 0; s < subjects; s++ {
		cur.Store(int64(s))
		for j := 0; j < perSubject; j++ {
			if err := m.Submit(fb(asker, core.NewServiceID(s), float64(j%2), nil)); err != nil {
				t.Error(err)
				break
			}
		}
	}
	close(done)
	wg.Wait()
}
