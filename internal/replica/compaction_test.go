package replica

import (
	"context"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"wstrust/internal/core"
	"wstrust/internal/registry"
	"wstrust/internal/simclock"
)

// TestFollowerAppliesThroughFailedCompaction: a follower whose
// auto-compaction fails still hands every replicated batch to OnApply and
// keeps its stream open. The failure is the store's to report; the
// frames are durable and applied, so the mechanism must see them too.
func TestFollowerAppliesThroughFailedCompaction(t *testing.T) {
	st, srv := newSource(t, nil)
	dir := t.TempDir()
	local, _, err := registry.Open(dir, registry.WALOptions{SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := local.Close(); err != nil {
			t.Errorf("close follower store: %v", err)
		}
	})
	// A directory where the temp snapshot goes makes every compaction fail.
	if err := os.Mkdir(filepath.Join(dir, "snapshot.wsx.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	var failures atomic.Int64
	local.OnCompactionError(func(error) { failures.Add(1) })
	applied := make(chan int, 64)
	clock := simclock.NewVirtual()
	f, err := New(Config{
		Primary: srv.URL,
		Store:   local,
		Clock:   clock,
		Sleep:   func(d time.Duration) { clock.Advance(d) },
		OnApply: func(fbs []core.Feedback) { applied <- len(fbs) },
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()
	for i := 0; i < 5000 && !f.Streaming(); i++ {
		simclock.SleepWall(time.Millisecond)
	}
	if !f.Streaming() {
		t.Fatal("follower never opened its stream")
	}

	const n = 10
	submitN(t, st, 0, n)
	total := 0
	for total < n {
		select {
		case k := <-applied:
			total += k
		case <-simclockTimeout(5 * time.Second):
			t.Fatalf("OnApply saw %d of %d replicated records (store holds %d)", total, n, local.Len())
		}
	}
	if local.Len() != n || failures.Load() == 0 {
		t.Fatalf("follower holds %d records after %d compaction failures; want %d records and at least one failure",
			local.Len(), failures.Load(), n)
	}
	if !f.Streaming() {
		t.Fatal("a compaction failure severed the stream")
	}
}
