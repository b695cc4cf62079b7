package registry

// Benchmarks for the PR 6 scaling claims, run at several GOMAXPROCS
// settings (go test -cpu 1,2,4). unshardedStore replicates the design
// before them — one RWMutex over global maps, and for the durable variant
// one frame write + fsync per Submit — so the store and its group-commit
// WAL are measured against the architecture they replaced. The "Sharded"
// names are kept so new runs line up with the rows BENCH_LEDGER.json
// recorded when the store kept 16 lock-striped shards; the one ordered
// log has since replaced them.

import (
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wstrust/internal/core"
	"wstrust/internal/simclock"
	"wstrust/internal/trust/beta"
)

// unshardedStore is the pre-PR6 registry: every Submit serializes on one
// write lock, and (when durable) on its own fsync.
type unshardedStore struct {
	mu        sync.RWMutex
	log       []core.Feedback
	byService map[core.ServiceID][]int
	seq       uint64
	f         *os.File // non-nil: fsync every submit (old WAL policy)
}

func newUnsharded(b *testing.B, durable bool) *unshardedStore {
	u := &unshardedStore{byService: map[core.ServiceID][]int{}}
	if durable {
		f, err := os.OpenFile(filepath.Join(b.TempDir(), walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			b.Fatal(err)
		}
		u.f = f
	}
	return u
}

func (u *unshardedStore) submit(fb core.Feedback) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.seq++
	if u.f != nil {
		payload, err := marshalRecord(fb)
		if err != nil {
			return err
		}
		frame := appendFrame(nil, 0, u.seq, crc32.ChecksumIEEE(payload), payload)
		if _, err := u.f.Write(frame); err != nil {
			return err
		}
		if err := u.f.Sync(); err != nil {
			return err
		}
	}
	u.log = append(u.log, fb)
	u.byService[fb.Service] = append(u.byService[fb.Service], len(u.log)-1)
	return nil
}

// benchFeedback pre-builds distinct feedback values so the benchmark loop
// measures store cost, not allocation of inputs.
func benchFeedback(n int) []core.Feedback {
	out := make([]core.Feedback, n)
	for i := range out {
		out[i] = richFeedback(i)
		out[i].Service = core.NewServiceID(i % 64)
	}
	return out
}

// BenchmarkSubmitMemSharded measures in-memory Submit from GOMAXPROCS
// concurrent writers, each appending under the log's mutex.
func BenchmarkSubmitMemSharded(b *testing.B) {
	inputs := benchFeedback(4096)
	st := NewStore()
	var idx atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(idx.Add(1)) % len(inputs)
			if err := st.Submit(inputs[i]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkSubmitMemUnsharded(b *testing.B) {
	inputs := benchFeedback(4096)
	st := newUnsharded(b, false)
	var idx atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(idx.Add(1)) % len(inputs)
			if err := st.submit(inputs[i]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkSubmitDurableGroupCommit(b *testing.B) {
	inputs := benchFeedback(4096)
	st, _, err := Open(b.TempDir(), WALOptions{SyncEvery: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	var idx atomic.Int64
	// Durable submits are fsync-bound, so offered concurrency (not CPU
	// count) sets the batch size a group commit can amortize over. 8×
	// GOMAXPROCS committers models a server's worth of in-flight submits;
	// the unsharded baseline gets the same concurrency and still
	// serializes on its per-submit fsync.
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(idx.Add(1)) % len(inputs)
			if err := st.Submit(inputs[i]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkSubmitDurableUnsharded(b *testing.B) {
	inputs := benchFeedback(4096)
	st := newUnsharded(b, true)
	var idx atomic.Int64
	b.SetParallelism(8) // same offered concurrency as the group-commit bench
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(idx.Add(1)) % len(inputs)
			if err := st.submit(inputs[i]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// bootFeedback is record i of a store shaped like the one wsxd boots in
// the repo benchmark: 4096 consumers rating 16 services of a catalog, one
// overall rating each, a millisecond apart.
func bootFeedback(i int) core.Feedback {
	return core.Feedback{
		Consumer: core.NewConsumerID(i%4096 + 1),
		Service:  core.NewServiceID(i%16 + 1),
		Provider: core.NewProviderID(i%16 + 1),
		Context:  "compute",
		Ratings:  map[core.Facet]float64{core.FacetOverall: float64(i*7919%1001) / 1000},
		At:       simclock.Epoch.Add(time.Duration(i) * time.Millisecond),
	}
}

// writeBootStore fills dir with n bootFeedback records, all but the last
// inWAL compacted into the snapshot.
func writeBootStore(tb testing.TB, dir string, n, inWAL int) {
	tb.Helper()
	s, _, err := Open(dir, WALOptions{SyncEvery: 1 << 30})
	if err != nil {
		tb.Fatal(err)
	}
	batch := make([]core.Feedback, 0, 4096)
	for i := 0; i < n; i++ {
		batch = append(batch, bootFeedback(i))
		if len(batch) == cap(batch) || i == n-inWAL-1 || i == n-1 {
			if err := s.SubmitBatch(batch); err != nil {
				tb.Fatal(err)
			}
			batch = batch[:0]
		}
		if i == n-inWAL-1 {
			if err := s.Snapshot(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkOpenReplay measures one boot of a 65,536-record store, the
// size of the repo benchmark's preload: Open recovers the snapshot and
// the WAL behind it, and Replay feeds every record into a fresh beta
// mechanism. Run it with -benchmem for the allocations per boot.
func BenchmarkOpenReplay(b *testing.B) {
	dir := b.TempDir()
	writeBootStore(b, dir, 65536, 2048)
	for b.Loop() {
		s, _, err := Open(dir, WALOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Replay(beta.New()); err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// raceFilledStore opens a durable store and fills it with n bootFeedback
// records from 8 concurrent writers, whose group commits batch them as on
// a live primary under load. The WAL is not fsynced until Close, so
// commits in the timed loops cost a write but no fsync.
func raceFilledStore(b *testing.B, n int) *Store {
	b.Helper()
	s, _, err := Open(b.TempDir(), WALOptions{SyncEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := s.Close(); err != nil {
			b.Error(err)
		}
	})
	const writers = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += writers {
				if err := s.Submit(bootFeedback(i)); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return s
}

// BenchmarkFramesSince measures the primary's side of streaming
// replication on a 65,536-record store that 8 concurrent durable writers
// filled. A commit lands before every FramesSince call, as on a live
// primary.
//
//   - stream: one Submit, then the FramesSince call that ships it.
//   - lag: a follower 2,048 frames behind catches up in 512-frame calls.
func BenchmarkFramesSince(b *testing.B) {
	s := raceFilledStore(b, 1<<16)
	next := 1 << 16
	submit := func() {
		if err := s.Submit(bootFeedback(next)); err != nil {
			b.Fatal(err)
		}
		next++
	}
	b.Run("stream", func(b *testing.B) {
		for b.Loop() {
			submit()
			frames, err := s.FramesSince(s.LastSeq()-1, 512)
			if err != nil || len(frames) != 1 {
				b.Fatalf("FramesSince shipped %d frames, err %v", len(frames), err)
			}
		}
	})
	b.Run("lag", func(b *testing.B) {
		for b.Loop() {
			for cur := s.LastSeq() - 2048; cur < s.LastSeq(); {
				submit()
				frames, err := s.FramesSince(cur, 512)
				if err != nil || len(frames) == 0 {
					b.Fatalf("FramesSince(%d) shipped %d frames, err %v", cur, len(frames), err)
				}
				cur = frames[len(frames)-1].Seq
			}
		}
	})
}

// BenchmarkWriteSnapshotTo measures a replica bootstrap document of the
// store BenchmarkFramesSince reads, one Submit after the last.
func BenchmarkWriteSnapshotTo(b *testing.B) {
	s := raceFilledStore(b, 1<<16)
	next := 1 << 16
	for b.Loop() {
		if err := s.Submit(bootFeedback(next)); err != nil {
			b.Fatal(err)
		}
		next++
		if _, _, err := s.WriteSnapshotTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
