package resource_test

import (
	"math"
	"testing"
	"time"

	"wstrust/internal/core"
	"wstrust/internal/simclock"
	"wstrust/internal/trust/resource"
	"wstrust/internal/trust/trusttest"
)

// TestAmazonDifferential proves the per-subject score memo (invalidated
// wholesale on every submit, since the global prior moves) matches a
// cold recompute byte-for-byte.
func TestAmazonDifferential(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		trusttest.Differential(t, func() core.Mechanism {
			return resource.NewAmazon()
		}, trusttest.Market(23, 16, 10, 12, 0.6))
	})
}

// TestEpinionsDifferential covers the plain Submit/Score path; review
// helpfulness votes get their own harness below because RateReview is
// not part of core.Mechanism.
func TestEpinionsDifferential(t *testing.T) {
	trusttest.Differential(t, func() core.Mechanism {
		return resource.NewEpinions()
	}, trusttest.Market(29, 16, 10, 12, 0.6))
}

// TestEpinionsRateReviewDifferential interleaves helpfulness votes with
// submits: votes bump the vote epoch and must flush every cached score,
// so a warm instance still matches a cold rebuild of the same history.
func TestEpinionsRateReviewDifferential(t *testing.T) {
	s := trusttest.Market(31, 12, 8, 10, 0.6)
	type vote struct {
		after    int // replay position: vote fires after this many submits
		reviewer core.ConsumerID
		helpful  bool
	}
	var votes []vote
	for i := 3; i < len(s.Feedbacks); i += 7 {
		votes = append(votes, vote{i, core.NewConsumerID(i % 12), i%3 != 0})
	}
	replay := func(upto int) *resource.Epinions {
		m := resource.NewEpinions()
		vi := 0
		for i := 0; i <= upto; i++ {
			if err := m.Submit(s.Feedbacks[i]); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			for vi < len(votes) && votes[vi].after == i {
				m.RateReview(votes[vi].reviewer, votes[vi].helpful)
				vi++
			}
		}
		return m
	}

	warm := resource.NewEpinions()
	vi := 0
	for i, fb := range s.Feedbacks {
		if err := warm.Submit(fb); err != nil {
			t.Fatalf("warm submit %d: %v", i, err)
		}
		for vi < len(votes) && votes[vi].after == i {
			warm.RateReview(votes[vi].reviewer, votes[vi].helpful)
			vi++
		}
		warm.Score(s.Queries[i%len(s.Queries)]) // keep caches warm across votes
		if (i+1)%20 == 0 || i == len(s.Feedbacks)-1 {
			cold := replay(i)
			for qi, q := range s.Queries {
				wv, wok := warm.Score(q)
				cv, cok := cold.Score(q)
				if wok != cok || math.Float64bits(wv.Score) != math.Float64bits(cv.Score) {
					t.Fatalf("after %d submits, query %d (%+v): warm=%+v ok=%v cold=%+v ok=%v",
						i+1, qi, q, wv, wok, cv, cok)
				}
			}
		}
	}
}

// TestEpinionsConcurrentRateReview races helpfulness votes against the
// standard Submit/Score hammer; run with -race.
func TestEpinionsConcurrentRateReview(t *testing.T) {
	m := resource.NewEpinions()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			m.RateReview(core.NewConsumerID(i%8), i%3 == 0)
		}
	}()
	trusttest.Hammer(t, m)
	<-done
}

// TestConcurrentSubmitScoreReset hammers both resource mechanisms from
// many goroutines; run with -race.
func TestConcurrentSubmitScoreReset(t *testing.T) {
	for name, m := range map[string]core.Mechanism{
		"amazon":   resource.NewAmazon(),
		"epinions": resource.NewEpinions(),
	} {
		t.Run(name, func(t *testing.T) {
			trusttest.Hammer(t, m)
			if err := m.Submit(core.Feedback{
				Consumer: core.NewConsumerID(0), Service: core.NewServiceID(0),
				Ratings: map[core.Facet]float64{core.FacetOverall: 0.9},
				At:      simclock.Epoch.Add(time.Second),
			}); err != nil {
				t.Fatal(err)
			}
			if _, ok := m.Score(core.Query{Subject: core.EntityID(core.NewServiceID(0)), Facet: core.FacetOverall}); !ok {
				t.Fatal("post-hammer score unanswered")
			}
		})
	}
}
