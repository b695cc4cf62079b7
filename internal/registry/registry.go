// Package registry implements the paper's central QoS registry (Figure 2):
// "a central node used to collect and store QoS information in a web
// service system". Consumers report feedback after consuming services; the
// registry keeps it in submission order, and Replay feeds that log to a
// centralized trust and reputation mechanism (eBay, Sporas/Histos,
// collaborative filtering, Liu-Ngu-Zeng, Maximilien-Singh, Day), which
// computes ratings from what it is fed.
//
// The registry also keeps communication accounting (one message per
// submitted record) so experiments F2 and C6 can compare the centralized
// design's costs against decentralized alternatives.
//
// Concurrency architecture: the store keeps one append-only log of
// sequence-stamped records in sequence order, held in fixed chunks that
// never move. A writer appends under the log's mutex; every ordered read
// (Replay, Export, FramesSince, WriteSnapshotTo, memory-path compaction)
// captures the chunk list and length under it and walks the records
// without it. Durable stores batch concurrent writes into WAL group
// commits (see wal.go), amortizing one fsync across the batch; the
// commit's leader appends each batch's records to the log once the batch
// is written.
package registry

import (
	"fmt"
	"iter"
	"sync"
	"sync/atomic"

	"wstrust/internal/core"
)

// Store is the central QoS registry. The zero value is unusable; build
// with NewStore (in-memory) or Open (durable, WAL-backed). Store is safe
// for concurrent use: readers walk the log without blocking its writers.
type Store struct {
	log recLog

	seq      atomic.Uint64 // last assigned record sequence number
	messages atomic.Int64  // cumulative submitted records (communication cost)

	// state is the world lock: a write holds it shared for its whole span
	// (WAL commit + log append), while Snapshot, Sync, Close and the
	// replication resets hold it exclusively — guaranteeing no record is
	// in the WAL file but not the log (or the reverse) while the WAL is
	// compacted, truncated or closed.
	state  sync.RWMutex
	wal    *walWriter // guarded by state; non-nil on stores built by Open
	closed bool       // guarded by state; Close on a durable store sets it
	snap   snapFacts  // guarded by state; the on-disk log compaction extends (compact.go)

	compactErr atomic.Pointer[func(error)] // OnCompactionError's handler

	// Replication state (see replication.go). epoch is the current fencing
	// epoch; marks is the durable promotion history behind it. commitCh is
	// the channel-close broadcast Updates hands out, replaced on every
	// commit.
	epoch    atomic.Uint64
	replMu   sync.Mutex    // guards marks
	marks    []EpochMark   // guarded by replMu
	commitMu sync.Mutex    // guards commitCh
	commitCh chan struct{} // guarded by commitMu
}

// logChunk is the number of records in one chunk of the log, about
// 147 KB: what an empty store allocates on its first write.
const logChunk = 1024

// recLog is the store's records in sequence order. It grows by whole
// chunks that are never moved or reused, so growing it copies no
// records, and the records below a captured length never change.
type recLog struct {
	mu     sync.Mutex
	chunks []*[logChunk]record // guarded by mu
	n      int                 // guarded by mu: records held
}

// record is one stored feedback entry with its global sequence number.
type record struct {
	seq uint64
	fb  core.Feedback
}

// push appends r, whose sequence number exceeds every one the log holds.
//
//lint:guarded push runs with l.mu held (add and the in-memory write paths)
func (l *recLog) push(r record) {
	if l.n == len(l.chunks)*logChunk {
		l.chunks = append(l.chunks, new([logChunk]record))
	}
	l.chunks[l.n/logChunk][l.n%logChunk] = r
	l.n++
}

// add appends recs under the log's mutex.
func (l *recLog) add(recs ...record) {
	l.mu.Lock()
	for _, r := range recs {
		l.push(r)
	}
	l.mu.Unlock()
}

// view captures the log as it stands, for reading without the lock.
func (l *recLog) view() logView {
	l.mu.Lock()
	defer l.mu.Unlock()
	return logView{chunks: l.chunks, n: l.n}
}

// logView is the first n records of the log.
type logView struct {
	chunks []*[logChunk]record
	n      int
}

// at is the view's i-th record.
func (v logView) at(i int) *record { return &v.chunks[i/logChunk][i%logChunk] }

// all yields the view's records with their sequence numbers, in order.
func (v logView) all() iter.Seq2[uint64, core.Feedback] {
	return func(yield func(uint64, core.Feedback) bool) {
		for i := range v.n {
			if r := v.at(i); !yield(r.seq, r.fb) {
				return
			}
		}
	}
}

// NewStore returns an empty in-memory registry. For a crash-consistent,
// WAL-backed registry use Open.
func NewStore() *Store {
	return &Store{commitCh: make(chan struct{})}
}

// Submit appends one feedback record. Malformed feedback is rejected.
// Each submit counts as one consumer→registry message. Past validation it
// is a batch of one (see SubmitBatch).
func (s *Store) Submit(fb core.Feedback) error {
	if err := fb.Validate(); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	return s.write([]core.Feedback{fb})
}

// SubmitBatch appends a batch of feedback records atomically with respect
// to intake: every record is validated (and, on durable stores, encoded)
// before any state changes, so a malformed entry rejects the whole batch
// with the store untouched. On a WAL-backed store the batch joins a single
// group commit — one leader drain, at most one fsync, for all N frames —
// which is the durable half of the bulk trust-delta merge the streaming
// update API exposes (wsxd POST /local-trust). The records take
// contiguous sequence numbers, exactly like N sequential Submits; each
// record still counts as one message.
func (s *Store) SubmitBatch(fbs []core.Feedback) error {
	if len(fbs) == 0 {
		return nil
	}
	for i := range fbs {
		if err := fbs[i].Validate(); err != nil {
			return fmt.Errorf("registry: batch record %d: %w", i, err)
		}
	}
	return s.write(fbs)
}

// write appends validated records, the path Submit and SubmitBatch share.
// On a WAL-backed store they join one group commit: they are framed,
// checksummed and written to the WAL (and, per the fsync batching policy,
// made durable) before the commit's leader appends them to the log, and a
// WAL write error rejects them with the store unchanged. An in-memory
// store takes their sequence numbers and appends them under the log's
// mutex.
func (s *Store) write(fbs []core.Feedback) error {
	s.state.RLock()
	if s.closed {
		s.state.RUnlock()
		return fmt.Errorf("registry: store is closed")
	}
	if s.wal != nil {
		payloads := make([][]byte, len(fbs))
		for i := range fbs {
			p, err := marshalRecord(fbs[i])
			if err != nil {
				s.state.RUnlock()
				return fmt.Errorf("registry: encode record %d for wal: %w", i, err)
			}
			payloads[i] = p
		}
		if err := s.wal.commitBatch(&s.seq, s.epoch.Load(), fbs, payloads); err != nil {
			s.state.RUnlock()
			return err
		}
	} else {
		s.log.mu.Lock()
		for _, fb := range fbs {
			s.log.push(record{seq: s.seq.Add(1), fb: fb})
		}
		s.log.mu.Unlock()
	}
	s.messages.Add(int64(len(fbs)))
	s.endWrite()
	return nil
}

// endWrite ends a write that holds s.state shared and has logged its
// records: it releases the lock, wakes the Updates waiters and runs the
// auto-compaction the write crossed, if any. The records are durable and
// logged whatever the compaction does; a failure only means the WAL stays
// long for now.
//
//lint:guarded endWrite runs with s.state read-locked by the write it ends
func (s *Store) endWrite() {
	compact := s.wal != nil && s.wal.shouldCompact()
	s.state.RUnlock()
	s.notifyCommit()
	if compact {
		s.compact()
	}
}

// applyRecovered installs one record Open recovers or a snapshot seeds,
// and reports whether it did: a record whose sequence number does not
// exceed the store's is skipped, so recovery applies each sequence number
// at most once. The store is not yet shared (Open) or is held exclusively
// (SeedFromSnapshot); the log's lock is taken for uniformity. Recovered
// records were counted as messages when first submitted, so they are not
// re-counted.
func (s *Store) applyRecovered(seq uint64, fb core.Feedback) bool {
	if seq <= s.seq.Load() {
		return false
	}
	s.log.add(record{seq: seq, fb: fb})
	s.seq.Store(seq)
	return true
}

// Len reports the number of stored feedback records.
func (s *Store) Len() int { return s.log.view().n }

// MessageCount reports cumulative messages, one per submitted record: the
// centralized system's communication cost.
func (s *Store) MessageCount() int64 { return s.messages.Load() }
