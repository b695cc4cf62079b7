package pagerank_test

import (
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/trust/pagerank"
	"wstrust/internal/trust/trusttest"
)

// TestDifferential proves the epoch-cached rank vector matches a cold
// recompute byte-for-byte, with and without interleaved Ticks.
func TestDifferential(t *testing.T) {
	scripts := map[string]trusttest.Script{
		"lazy-only": trusttest.Market(17, 14, 10, 10, 0.6),
	}
	ticked := trusttest.Market(17, 14, 10, 10, 0.6)
	ticked.TickEvery = 9
	scripts["ticked"] = ticked
	for name, s := range scripts {
		t.Run(name, func(t *testing.T) {
			trusttest.Differential(t, func() core.Mechanism {
				return pagerank.New()
			}, s)
		})
	}
}
