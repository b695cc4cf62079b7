package eigentrust_test

import (
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/trust/eigentrust"
	"wstrust/internal/trust/trusttest"
)

const incEps = 1e-9

// incBuild returns an incremental-mode constructor with the given extra
// options layered on.
func incBuild(opts ...eigentrust.Option) func() core.Mechanism {
	return func() core.Mechanism {
		return eigentrust.New(append([]eigentrust.Option{eigentrust.WithEpsilon(incEps)}, opts...)...)
	}
}

// TestIncrementalVsExact pins the ε-closeness contract of DESIGN.md §8:
// the warm-start delta-propagated vector must track the exact fixed-25
// iteration mode within a small tolerance, with and without pre-trusted
// anchors. (The exact mode iterates a fixed count rather than to a
// residual, so the comparison tolerance is the exact mode's own truncation
// error, not incEps.)
func TestIncrementalVsExact(t *testing.T) {
	cases := map[string][]eigentrust.Option{
		"plain":       nil,
		"pre-trusted": {eigentrust.WithPreTrusted(core.NewConsumerID(0), core.NewConsumerID(1))},
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			exact := func() core.Mechanism { return eigentrust.New(opts...) }
			s := trusttest.Market(19, 14, 10, 10, 0.6)
			s.TickEvery = 11
			trusttest.DifferentialEps(t, incBuild(opts...), exact, 1e-3, s)
		})
	}
}

// TestIncrementalWarmVsCold proves warm-start convergence: a long-lived
// incremental instance that delta-propagates through hundreds of submits
// must agree with a freshly built incremental instance replaying the same
// prefix, within the residual tolerance both converge to. rebase-often
// runs long enough for the warm instance to pass 1,024 warm computes, so
// it crosses the periodic drift-clearing dense pass.
func TestIncrementalWarmVsCold(t *testing.T) {
	cases := map[string]struct {
		opts   []eigentrust.Option
		rounds int
	}{
		"plain":        {nil, 12},
		"pre-trusted":  {[]eigentrust.Option{eigentrust.WithPreTrusted(core.NewConsumerID(0), core.NewConsumerID(1))}, 12},
		"rebase-often": {nil, 400},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			s := trusttest.Market(23, 14, 10, c.rounds, 0.6)
			s.TickEvery = 9
			if c.rounds > 12 {
				s.CheckEvery = 200
			}
			trusttest.DifferentialEps(t, incBuild(c.opts...), incBuild(c.opts...), 1e-6, s)
		})
	}
}

// TestIncrementalConvergenceStats checks the ConvergenceReporter surface:
// a cold first compute reports WarmStart=false, subsequent delta
// propagations report WarmStart=true with a residual at or below the
// configured bound.
func TestIncrementalConvergenceStats(t *testing.T) {
	m := eigentrust.New(eigentrust.WithEpsilon(1e-8))
	s := trusttest.Market(7, 8, 6, 6, 0.7)
	for i, fb := range s.Feedbacks {
		if err := m.Submit(fb); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	q := s.Queries[0]
	m.Score(q)
	st := m.LastConvergence()
	if st.WarmStart {
		t.Fatalf("first compute reported WarmStart=true: %+v", st)
	}
	if st.Iterations == 0 {
		t.Fatalf("first compute reported zero iterations: %+v", st)
	}
	if err := m.Submit(s.Feedbacks[0]); err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	m.Score(q)
	st = m.LastConvergence()
	if !st.WarmStart {
		t.Fatalf("delta propagation reported WarmStart=false: %+v", st)
	}
	if st.Residual > 1e-8 {
		t.Fatalf("propagation stopped above the residual bound: %+v", st)
	}
	// Quiescent scores leave the stats at a zero-work warm report.
	m.Score(q)
	st = m.LastConvergence()
	if !st.WarmStart || st.Iterations != 0 || st.Residual != 0 {
		t.Fatalf("quiescent score should report {0, 0, warm}: %+v", st)
	}
}

// TestIncrementalHammer races the warm-start paths the same way the exact
// mode is hammered elsewhere: Submit/Score/Tick from 8 goroutines.
func TestIncrementalHammer(t *testing.T) {
	trusttest.Hammer(t, eigentrust.New(eigentrust.WithEpsilon(1e-8)))
}
