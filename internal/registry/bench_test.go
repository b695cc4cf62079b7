package registry

// Benchmarks for the PR 6 scaling claims, run at several GOMAXPROCS
// settings (go test -cpu 1,2,4). unshardedStore replicates the pre-shard
// design — one RWMutex over global maps, and for the durable variant one
// frame write + fsync per Submit — so the sharded store and group-commit
// WAL are measured against the exact architecture they replaced.

import (
	"hash/crc32"
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

// BenchmarkRatingMatrixCOW measures the satellite fix: RatingMatrix on a
// warm view is a pointer load, where the old store rebuilt the nested maps
// on every call (BenchmarkRatingMatrixRebuild).
func BenchmarkRatingMatrixCOW(b *testing.B) {
	st := NewStore()
	for _, fb := range benchFeedback(4096) {
		if err := st.Submit(fb); err != nil {
			b.Fatal(err)
		}
	}
	st.RatingMatrix() // warm the view
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := st.RatingMatrix(); len(m) == 0 {
			b.Fatal("empty matrix")
		}
	}
}

func BenchmarkRatingMatrixRebuild(b *testing.B) {
	st := NewStore()
	inputs := benchFeedback(4096)
	for _, fb := range inputs {
		if err := st.Submit(fb); err != nil {
			b.Fatal(err)
		}
	}
	log := st.currentView().log
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The pre-PR6 RatingMatrix body: full nested-map rebuild per call.
		m := make(map[core.ConsumerID]map[core.ServiceID]float64)
		for _, fb := range log {
			v, ok := fb.Ratings[core.FacetOverall]
			if !ok {
				continue
			}
			row := m[fb.Consumer]
			if row == nil {
				row = map[core.ServiceID]float64{}
				m[fb.Consumer] = row
			}
			row[fb.Service] = v
		}
		if len(m) == 0 {
			b.Fatal("empty matrix")
		}
	}
}

// BenchmarkForServiceView measures the satellite fix for Store.collect:
// reads serve clipped slices off the view instead of copying under RLock.
func BenchmarkForServiceView(b *testing.B) {
	st := NewStore()
	for _, fb := range benchFeedback(4096) {
		if err := st.Submit(fb); err != nil {
			b.Fatal(err)
		}
	}
	st.ForService(core.NewServiceID(1)) // warm the view
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := st.ForService(core.NewServiceID(i % 64)); len(got) == 0 {
			b.Fatal("empty result")
		}
	}
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
