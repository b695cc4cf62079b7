package filtering_test

import (
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/simclock"
	"wstrust/internal/trust/filtering"
	"wstrust/internal/trust/trusttest"
)

var strategies = []filtering.Strategy{
	filtering.None, filtering.Majority, filtering.Cluster, filtering.ZhangCohen,
}

// TestDifferential runs the replay check once per defense: all four are
// pure functions of the rating store — including Zhang-Cohen's advisor
// trust, which derives from co-rated history, not query history.
func TestDifferential(t *testing.T) {
	for _, s := range strategies {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			trusttest.Differential(t, func() core.Mechanism {
				return filtering.New(s)
			}, trusttest.Market(89, 12, 8, 10, 0.6))
		})
	}
}

// TestConcurrentSubmitScoreReset hammers every defense; run with -race.
func TestConcurrentSubmitScoreReset(t *testing.T) {
	for _, s := range strategies {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			m := filtering.New(s)
			trusttest.Hammer(t, m)
			if err := m.Submit(core.Feedback{
				Consumer: core.NewConsumerID(0), Service: core.NewServiceID(0),
				Ratings: map[core.Facet]float64{core.FacetOverall: 1},
				At:      simclock.Epoch,
			}); err != nil {
				t.Fatal(err)
			}
			if _, ok := m.Score(core.Query{Subject: core.EntityID(core.NewServiceID(0)), Facet: core.FacetOverall}); !ok {
				t.Fatal("no score after post-hammer submit")
			}
		})
	}
}
