package cf_test

import (
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/trust/cf"
	"wstrust/internal/trust/trusttest"
)

// TestDifferential proves the version-stamped caches are pure
// memoization: a long-lived instance with warm (and repeatedly
// invalidated) caches must score byte-identically to a cold rebuild, for
// both similarity measures.
func TestDifferential(t *testing.T) {
	configs := map[string][]cf.Option{
		"pearson": nil,
		"cosine":  {cf.WithSimilarity(cf.Cosine)},
	}
	for name, opts := range configs {
		t.Run(name, func(t *testing.T) {
			trusttest.Differential(t, func() core.Mechanism {
				return cf.New(opts...)
			}, trusttest.Market(11, 20, 12, 14, 0.7))
		})
	}
}
