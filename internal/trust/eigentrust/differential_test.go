package eigentrust_test

import (
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/trust/eigentrust"
	"wstrust/internal/trust/trusttest"
)

// TestDifferential proves exact mode's kept trust vector, recomputed only
// after a Submit or Tick marks the basis cold, matches a cold rebuild
// byte-for-byte, with and without pre-trusted anchors and interleaved
// Ticks.
func TestDifferential(t *testing.T) {
	build := map[string]func() core.Mechanism{
		"plain": func() core.Mechanism { return eigentrust.New() },
		"pre-trusted": func() core.Mechanism {
			return eigentrust.New(eigentrust.WithPreTrusted(core.NewConsumerID(0), core.NewConsumerID(1)))
		},
	}
	for name, b := range build {
		t.Run(name, func(t *testing.T) {
			s := trusttest.Market(19, 14, 10, 10, 0.6)
			s.TickEvery = 11
			trusttest.Differential(t, b, s)
		})
	}
}
