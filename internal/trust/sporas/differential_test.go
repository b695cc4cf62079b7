package sporas_test

import (
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/trust/sporas"
	"wstrust/internal/trust/trusttest"
)

// TestDifferential proves the Histos caches (agreement pairs, rater
// roster) are pure memoization: warm and cold instances must score
// byte-identically.
func TestDifferential(t *testing.T) {
	configs := map[string][]sporas.Option{
		"sporas":       nil,
		"histos":       {sporas.WithHistos(true)},
		"short-memory": {sporas.WithTheta(2)},
	}
	for name, opts := range configs {
		t.Run(name, func(t *testing.T) {
			trusttest.Differential(t, func() core.Mechanism {
				return sporas.New(opts...)
			}, trusttest.Market(13, 16, 10, 12, 0.6))
		})
	}
}
