package peertrust_test

import (
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/trust/peertrust"
	"wstrust/internal/trust/trusttest"
)

// TestDifferential proves the PSM pair cache, per-rater global
// credibility memo and subject-mean memo are pure memoization: warm and
// cold instances score byte-identically under fine-grained invalidation.
func TestDifferential(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		trusttest.Differential(t, func() core.Mechanism {
			return peertrust.New()
		}, trusttest.Market(37, 16, 10, 12, 0.6))
	})
}
