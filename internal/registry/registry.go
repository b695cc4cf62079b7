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
// Concurrency architecture (PR 6): the write path is sharded — records land
// in one of shardCount lock-striped log segments chosen by a hash of the
// service key, so concurrent Submits for different services never contend.
// A global atomic sequence number stamps every record. Every ordered read
// (Replay, Export, FramesSince, WriteSnapshotTo, memory-path compaction)
// merges the shard segments by sequence number (bySeq), reading the
// append-only region of each segment without holding its lock. Durable
// stores batch concurrent Submits into WAL group commits (see wal.go)
// amortizing one fsync across the batch.
package registry

import (
	"cmp"
	"fmt"
	"iter"
	"slices"
	"sync"
	"sync/atomic"

	"wstrust/internal/core"
)

// shardCount is the number of lock stripes; a power of two so the shard
// selector is a mask. Fixed (not GOMAXPROCS-derived) so the data layout is
// identical on every machine.
const shardCount = 16

// Store is the central QoS registry. The zero value is unusable; build
// with NewStore (in-memory) or Open (durable, WAL-backed). Store is safe
// for concurrent use: writers stripe across shards, and readers merge the
// shard segments without blocking them.
type Store struct {
	shards [shardCount]shard

	seq      atomic.Uint64 // last assigned record sequence number
	count    atomic.Int64  // live records across all shards
	messages atomic.Int64  // cumulative submitted records (communication cost)

	// state is the world lock: Submit holds it shared for its whole span
	// (WAL commit + shard apply), while Snapshot, Sync, Reset and Close
	// hold it exclusively — guaranteeing no record is durable-but-unapplied
	// (or applied-but-unlogged) while the log is compacted or closed.
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

// shard is one lock stripe of the store: an append-only segment of
// sequence-stamped records. A service's records all land in the shard of
// its service key. Concurrent writers can append out of sequence order:
// a record's shard apply may land after that of a later sequence number.
type shard struct {
	mu   sync.RWMutex
	recs []record // guarded by mu
}

// record is one stored feedback entry with its global sequence number.
type record struct {
	seq uint64
	fb  core.Feedback
}

// shardFor hashes the service key (FNV-1a) onto a stripe. Sharding by
// service keeps each (consumer, service) pair's history in one shard.
func shardFor(id core.ServiceID) int {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return int(h & (shardCount - 1))
}

// NewStore returns an empty in-memory registry. For a crash-consistent,
// WAL-backed registry use Open.
func NewStore() *Store {
	return &Store{commitCh: make(chan struct{})}
}

// Submit appends one feedback record. Malformed feedback is rejected.
// Each submit counts as one consumer→registry message. On a WAL-backed
// store the record joins a group commit — it is framed, checksummed and
// appended to the log (and, per the fsync batching policy, made durable)
// before the in-memory state changes; a WAL write error rejects the submit
// with the store unchanged. Submits for different services proceed in
// parallel on separate shards.
func (s *Store) Submit(fb core.Feedback) error {
	if err := fb.Validate(); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	s.state.RLock()
	if s.closed {
		s.state.RUnlock()
		return fmt.Errorf("registry: store is closed")
	}
	var seq uint64
	if s.wal != nil {
		payload, err := marshalRecord(fb)
		if err != nil {
			s.state.RUnlock()
			return fmt.Errorf("registry: encode for wal: %w", err)
		}
		seq, err = s.wal.commit(&s.seq, s.epoch.Load(), payload)
		if err != nil {
			s.state.RUnlock()
			return err
		}
	} else {
		seq = s.seq.Add(1)
	}
	sh := &s.shards[shardFor(fb.Service)]
	sh.mu.Lock()
	sh.apply(seq, fb)
	sh.mu.Unlock()
	s.count.Add(1)
	s.messages.Add(1)
	compact := s.wal != nil && s.wal.shouldCompact()
	s.state.RUnlock()
	s.notifyCommit()
	if compact {
		// The record is durable and applied whatever the compaction
		// does; a failure only means the log stays long for now.
		s.compact()
	}
	return nil
}

// SubmitBatch appends a batch of feedback records atomically with respect
// to intake: every record is validated (and, on durable stores, encoded)
// before any state changes, so a malformed entry rejects the whole batch
// with the store untouched. On a WAL-backed store the batch joins a single
// group commit — one leader drain, at most one fsync, for all N frames —
// which is the durable half of the bulk trust-delta merge the streaming
// update API exposes (wsxd POST /local-trust). Records are applied to
// their shards in batch order under the shared state lock, exactly like N
// sequential Submits; each record still counts as one message.
func (s *Store) SubmitBatch(fbs []core.Feedback) error {
	if len(fbs) == 0 {
		return nil
	}
	for i := range fbs {
		if err := fbs[i].Validate(); err != nil {
			return fmt.Errorf("registry: batch record %d: %w", i, err)
		}
	}
	s.state.RLock()
	if s.closed {
		s.state.RUnlock()
		return fmt.Errorf("registry: store is closed")
	}
	var seq uint64
	if s.wal != nil {
		payloads := make([][]byte, len(fbs))
		for i := range fbs {
			p, err := marshalRecord(fbs[i])
			if err != nil {
				s.state.RUnlock()
				return fmt.Errorf("registry: encode batch record %d for wal: %w", i, err)
			}
			payloads[i] = p
		}
		first, err := s.wal.commitBatch(&s.seq, s.epoch.Load(), payloads)
		if err != nil {
			s.state.RUnlock()
			return err
		}
		seq = first
	} else {
		seq = s.seq.Add(uint64(len(fbs))) - uint64(len(fbs)) + 1
	}
	for i := range fbs {
		sh := &s.shards[shardFor(fbs[i].Service)]
		sh.mu.Lock()
		sh.apply(seq+uint64(i), fbs[i])
		sh.mu.Unlock()
	}
	s.count.Add(int64(len(fbs)))
	s.messages.Add(int64(len(fbs)))
	compact := s.wal != nil && s.wal.shouldCompact()
	s.state.RUnlock()
	s.notifyCommit()
	if compact {
		s.compact()
	}
	return nil
}

// apply appends one sequence-stamped record to the shard segment.
//
//lint:guarded apply runs with the shard's mu held (Submit, recovery)
func (sh *shard) apply(seq uint64, fb core.Feedback) {
	sh.recs = append(sh.recs, record{seq: seq, fb: fb})
}

// applyRecovered installs one record Open recovers or a snapshot seeds,
// and reports whether it did: a record whose sequence number does not
// exceed the store's is skipped, so recovery applies each sequence number
// at most once. The store is not yet shared (Open) or is held exclusively
// (SeedFromSnapshot); the shard lock is taken for uniformity. Recovered
// records were counted as messages when first submitted, so they are not
// re-counted.
func (s *Store) applyRecovered(seq uint64, fb core.Feedback) bool {
	if seq <= s.seq.Load() {
		return false
	}
	sh := &s.shards[shardFor(fb.Service)]
	sh.mu.Lock()
	sh.apply(seq, fb)
	sh.mu.Unlock()
	s.seq.Store(seq)
	s.count.Add(1)
	return true
}

// reserve sizes every shard segment for the records Open is about to
// apply, so recovery grows each segment once rather than by doubling.
func (s *Store) reserve(batches ...[]snapFrame) {
	var n [shardCount]int
	for _, frames := range batches {
		for i := range frames {
			n[shardFor(frames[i].fb.Service)]++
		}
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.recs = slices.Grow(sh.recs, n[i])
		sh.mu.Unlock()
	}
}

// Len reports the number of stored feedback records.
func (s *Store) Len() int { return int(s.count.Load()) }

// MessageCount reports cumulative messages, one per submitted record: the
// centralized system's communication cost.
func (s *Store) MessageCount() int64 { return s.messages.Load() }

// segments captures every shard segment as it stands. The records below a
// captured length never change, so callers read them without the lock.
func (s *Store) segments() [shardCount][]record {
	var segs [shardCount][]record
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		segs[i] = sh.recs[:len(sh.recs):len(sh.recs)]
		sh.mu.RUnlock()
	}
	return segs
}

// bySeq yields the store's records with their sequence numbers, in
// sequence order, merged from the shard segments present when iteration
// starts. A segment that a racing writer left out of order is walked
// through seqOrder's index rather than a sorted copy of its records.
func (s *Store) bySeq() iter.Seq2[uint64, core.Feedback] {
	return func(yield func(uint64, core.Feedback) bool) {
		curs := make([]segCursor, 0, shardCount)
		for _, seg := range s.segments() {
			if len(seg) > 0 {
				curs = append(curs, segCursor{recs: seg, order: seqOrder(seg)})
			}
		}
		for len(curs) > 0 {
			m := 0
			for i := 1; i < len(curs); i++ {
				if curs[i].head().seq < curs[m].head().seq {
					m = i
				}
			}
			r := curs[m].head()
			if !yield(r.seq, r.fb) {
				return
			}
			if curs[m].next++; curs[m].next == len(curs[m].recs) {
				curs = slices.Delete(curs, m, m+1)
			}
		}
	}
}

// segCursor walks one shard segment in sequence order.
type segCursor struct {
	recs  []record
	order []int32 // recs' indexes in sequence order; nil if recs already is
	next  int     // records walked so far
}

// head is the record with the lowest sequence number not yet walked.
func (c *segCursor) head() *record {
	if c.order != nil {
		return &c.recs[c.order[c.next]]
	}
	return &c.recs[c.next]
}

// seqOrder returns nil for a segment in sequence order, and otherwise the
// indexes of its records sorted by sequence number. A segment holds far
// fewer than 2^31 records.
func seqOrder(seg []record) []int32 {
	i := 1
	for i < len(seg) && seg[i-1].seq < seg[i].seq {
		i++
	}
	if i >= len(seg) {
		return nil
	}
	order := make([]int32, len(seg))
	for k := range order {
		order[k] = int32(k)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(seg[a].seq, seg[b].seq) })
	return order
}

// Reset clears all stored in-memory feedback but keeps the message
// counter, so cost accounting spans experiment phases. Reset does not
// touch durable state: it is an experiment-harness affordance for
// in-memory stores; a WAL-backed store that must be cleared durably
// should Reset and then Snapshot (which, with memory and files now
// apart, re-encodes the snapshot from memory).
func (s *Store) Reset() {
	s.state.Lock()
	defer s.state.Unlock()
	s.snap = snapFacts{}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.recs = nil
		sh.mu.Unlock()
	}
	s.count.Store(0)
	s.notifyCommit()
}
