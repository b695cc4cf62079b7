// Package trusttest holds shared test harnesses for the trust/*
// mechanism packages. Its centerpiece is the differential memoization
// check backing PR 3's epoch caches: a mechanism that memoizes derived
// state must produce scores byte-identical to a fresh instance that
// recomputes everything from the same feedback log.
package trusttest

import (
	"math"
	"sync"
	"testing"
	"time"

	"wstrust/internal/core"
	"wstrust/internal/qos"
	"wstrust/internal/simclock"
)

// Script is a deterministic feedback workload for Differential.
type Script struct {
	Feedbacks []core.Feedback
	// Queries are scored against both instances at every checkpoint, and
	// interleaved with submits on the warm instance to populate caches.
	Queries []core.Query
	// CheckEvery inserts a cold-rebuild checkpoint after every n submits
	// (default 25; a final checkpoint always runs).
	CheckEvery int
	// TickEvery calls Tick after every n submits on mechanisms that
	// implement core.Ticker — identically on warm and cold replays — so
	// tick-driven recomputes (EigenTrust, PageRank) are exercised too.
	// 0 disables ticking.
	TickEvery int
}

// Differential replays the script into one long-lived "warm" instance,
// interleaving queries so caches fill and then survive fine-grained
// invalidation, and at each checkpoint rebuilds a cold instance from the
// feedback prefix alone. Every query must then score bit-for-bit equal
// on both. build must return a fresh, equally-configured mechanism.
func Differential(t *testing.T, build func() core.Mechanism, s Script) {
	t.Helper()
	if s.CheckEvery <= 0 {
		s.CheckEvery = 25
	}
	warm := build()
	for i, fb := range s.Feedbacks {
		if err := warm.Submit(fb); err != nil {
			t.Fatalf("warm submit %d: %v", i, err)
		}
		tick(warm, s, i)
		// Touch a rotating query between submits: caches must be *warm*
		// when invalidation hits them, or the test only checks cold paths.
		if len(s.Queries) > 0 {
			warm.Score(s.Queries[i%len(s.Queries)])
		}
		if (i+1)%s.CheckEvery == 0 || i == len(s.Feedbacks)-1 {
			checkpoint(t, warm, build, s, i)
		}
	}
}

func tick(m core.Mechanism, s Script, i int) {
	if s.TickEvery <= 0 {
		return
	}
	if tk, ok := m.(core.Ticker); ok && (i+1)%s.TickEvery == 0 {
		tk.Tick(simclock.Epoch.Add(time.Duration(i+1) * time.Minute))
	}
}

func checkpoint(t *testing.T, warm core.Mechanism, build func() core.Mechanism, s Script, upto int) {
	t.Helper()
	cold := build()
	for j := 0; j <= upto; j++ {
		if err := cold.Submit(s.Feedbacks[j]); err != nil {
			t.Fatalf("cold submit %d: %v", j, err)
		}
		tick(cold, s, j)
	}
	for qi, q := range s.Queries {
		wv, wok := warm.Score(q)
		cv, cok := cold.Score(q)
		if wok != cok ||
			math.Float64bits(wv.Score) != math.Float64bits(cv.Score) ||
			math.Float64bits(wv.Confidence) != math.Float64bits(cv.Confidence) {
			t.Fatalf("after %d submits, query %d (%+v):\n  warm(cached)  = %+v ok=%v\n  cold(rebuild) = %+v ok=%v",
				upto+1, qi, q, wv, wok, cv, cok)
		}
	}
}

// DifferentialEps is Differential for mechanisms whose incremental mode
// answers within a bounded residual of the exact fixpoint rather than
// bit-for-bit (warm-start EigenTrust, DESIGN.md §8): the warm instance
// comes from warmBuild, every checkpoint rebuilds a cold instance from
// coldBuild, and scores must agree within tol. Found/not-found
// decisions must still match exactly. Pass the exact-mode constructor as
// coldBuild to pin the ε-closeness contract against the golden-digest
// configuration, or the incremental constructor itself to prove
// warm-vs-cold-incremental convergence.
func DifferentialEps(t *testing.T, warmBuild, coldBuild func() core.Mechanism, tol float64, s Script) {
	t.Helper()
	if s.CheckEvery <= 0 {
		s.CheckEvery = 25
	}
	warm := warmBuild()
	for i, fb := range s.Feedbacks {
		if err := warm.Submit(fb); err != nil {
			t.Fatalf("warm submit %d: %v", i, err)
		}
		tick(warm, s, i)
		if len(s.Queries) > 0 {
			warm.Score(s.Queries[i%len(s.Queries)])
		}
		if (i+1)%s.CheckEvery == 0 || i == len(s.Feedbacks)-1 {
			checkpointEps(t, warm, coldBuild, tol, s, i)
		}
	}
}

func checkpointEps(t *testing.T, warm core.Mechanism, coldBuild func() core.Mechanism, tol float64, s Script, upto int) {
	t.Helper()
	cold := coldBuild()
	for j := 0; j <= upto; j++ {
		if err := cold.Submit(s.Feedbacks[j]); err != nil {
			t.Fatalf("cold submit %d: %v", j, err)
		}
		tick(cold, s, j)
	}
	for qi, q := range s.Queries {
		wv, wok := warm.Score(q)
		cv, cok := cold.Score(q)
		if wok != cok ||
			math.Abs(wv.Score-cv.Score) > tol ||
			math.Abs(wv.Confidence-cv.Confidence) > tol {
			t.Fatalf("after %d submits, query %d (%+v) drifted past tol=%g:\n  warm(incremental) = %+v ok=%v\n  cold(rebuild)     = %+v ok=%v",
				upto+1, qi, q, tol, wv, wok, cv, cok)
		}
	}
}

// Hammer drives a mechanism from 8 goroutines interleaving Submit,
// personalized and global Score, plus Tick where implemented — the -race
// workout every epoch-cached mechanism gets, mirroring trust/beta's
// concurrency test. Assertions about post-hammer state stay with the
// caller; the interleaving makes exact values unpredictable here.
func Hammer(t *testing.T, m core.Mechanism) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				_ = m.Submit(core.Feedback{
					Consumer: core.NewConsumerID(w),
					Service:  core.NewServiceID(i % 7),
					Provider: core.NewProviderID(i % 3),
					Context:  "compute",
					Ratings:  map[core.Facet]float64{core.FacetOverall: float64(i%5) / 4},
					At:       simclock.Epoch.Add(time.Duration(i) * time.Second),
				})
				_, _ = m.Score(core.Query{
					Perspective: core.NewConsumerID(w),
					Subject:     core.EntityID(core.NewServiceID(i % 7)),
					Facet:       core.FacetOverall,
				})
				_, _ = m.Score(core.Query{
					Subject: core.EntityID(core.NewServiceID(i % 7)),
					Facet:   core.FacetOverall,
				})
				if w == 1 && i%40 == 39 {
					if tk, ok := m.(core.Ticker); ok {
						tk.Tick(simclock.Epoch.Add(time.Duration(i) * time.Minute))
					}
				}
			}
		}()
	}
	wg.Wait()
}

// QoSMarket is Market with execution monitoring attached: every feedback
// carries an Observed qos.Observation — service-dependent response time
// and cost, occasional invocation failures — plus a subjective accuracy
// rating, so mechanisms driven by objective QoS data (qosrank,
// maximilien, expert, vu) have evidence to rank on. Ratings-only
// mechanisms ignore the extra fields, so the same script works anywhere.
func QoSMarket(seed int64, nConsumers, nServices, rounds int, density float64) Script {
	rng := simclock.NewRand(seed)
	var fbs []core.Feedback
	at := simclock.Epoch
	for r := 0; r < rounds; r++ {
		for c := 0; c < nConsumers; c++ {
			if rng.Float64() >= density {
				continue
			}
			s := rng.Intn(nServices)
			// Response time has a per-service base so rankings are
			// meaningful, plus jitter so per-submit state actually moves.
			rt := 120 + 45*float64(s%5) + 60*rng.Float64()
			fbs = append(fbs, core.Feedback{
				Consumer: core.NewConsumerID(c),
				Service:  core.NewServiceID(s),
				Provider: core.ProviderID("p" + string(rune('a'+s%7))),
				Context:  "compute",
				Observed: qos.Observation{
					Values:  qos.Vector{qos.ResponseTime: rt, qos.Cost: 2 + float64(s%4)},
					At:      at,
					Success: rng.Float64() < 0.85,
				},
				Ratings: map[core.Facet]float64{
					core.FacetOverall: rng.Float64(),
					qos.Accuracy:      rng.Float64(),
				},
				At: at,
			})
			at = at.Add(time.Minute)
		}
	}
	return Script{Feedbacks: fbs, Queries: marketQueries(nConsumers, nServices)}
}

// Market builds a deterministic feedback script over nConsumers ×
// nServices with the given density, plus a query set covering the
// global view and several perspectives. Mechanisms needing providers
// get one per service.
func Market(seed int64, nConsumers, nServices, rounds int, density float64) Script {
	rng := simclock.NewRand(seed)
	var fbs []core.Feedback
	at := simclock.Epoch
	for r := 0; r < rounds; r++ {
		for c := 0; c < nConsumers; c++ {
			if rng.Float64() >= density {
				continue
			}
			s := rng.Intn(nServices)
			fbs = append(fbs, core.Feedback{
				Consumer: core.NewConsumerID(c),
				Service:  core.NewServiceID(s),
				Provider: core.ProviderID("p" + string(rune('a'+s%7))),
				Context:  "compute",
				Ratings:  map[core.Facet]float64{core.FacetOverall: rng.Float64()},
				At:       at,
			})
			at = at.Add(time.Minute)
		}
	}
	return Script{Feedbacks: fbs, Queries: marketQueries(nConsumers, nServices)}
}

// marketQueries covers the global view of every service plus a grid of
// consumer perspectives.
func marketQueries(nConsumers, nServices int) []core.Query {
	var qs []core.Query
	for s := 0; s < nServices; s++ {
		qs = append(qs, core.Query{Subject: core.EntityID(core.NewServiceID(s)), Facet: core.FacetOverall})
	}
	for c := 0; c < nConsumers; c += 2 {
		for s := 0; s < nServices; s += 3 {
			qs = append(qs, core.Query{
				Perspective: core.NewConsumerID(c),
				Subject:     core.EntityID(core.NewServiceID(s)),
				Facet:       core.FacetOverall,
			})
		}
	}
	return qs
}

// GlobalOnly strips perspective queries from a script, for mechanisms
// whose personalized path consults live network state that a cold rebuild
// cannot replay (bayesnet's recommendation protocol).
func GlobalOnly(s Script) Script {
	var qs []core.Query
	for _, q := range s.Queries {
		if q.Perspective == "" {
			qs = append(qs, q)
		}
	}
	s.Queries = qs
	return s
}
