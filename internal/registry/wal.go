package registry

// This file gives the central QoS registry crash consistency: an
// append-only, checksummed, line-framed write-ahead log with group
// commit, periodic snapshot + log compaction, and a recovery path
// (Open) that replays snapshot + WAL and tolerates the torn final
// record a crash mid-append leaves behind.
//
// On-disk layout, inside one directory:
//
//	wal.wsx       one frame per Submit since the last compaction:
//	              "w1 <seq> <crc32-hex8> <json>\n"           (epoch 0)
//	              "w2 <epoch> <seq> <crc32-hex8> <json>\n"   (epoch > 0)
//	snapshot.wsx  the full log at the last compaction:
//	              "s2 <count> <lastSeq> <crc32-hex8> <bodyLen>\n"
//	              followed by <count> frames (the <bodyLen> bytes the
//	              CRC covers); the legacy "s1 <count> <lastSeq>" header
//	              without a body checksum is still accepted on read
//	epoch.wsx     the fencing-epoch history (see replication.go):
//	              "e1 <epoch> <startSeq>\n" per promotion
//
// Frames carry a monotonically increasing sequence number, so a crash
// between "snapshot renamed" and "WAL truncated" is harmless: replay
// skips WAL frames the snapshot already covers. The snapshot is written
// to a temp file, fsynced and renamed, so it is never observed half
// written; the WAL may end in a torn frame, which recovery truncates
// away with a warning instead of failing the store. A snapshot whose
// header or body checksum fails to verify (a real disk fault — the
// atomic write rules out torn snapshots) no longer fails recovery
// outright: Open falls back to WAL-only replay and reports the corrupt
// snapshot as a Recovery warning, so a node with a damaged snapshot
// still serves its WAL suffix instead of refusing to boot.
//
// Compaction does not re-encode the store: the log is append-only, so the
// next snapshot body is the current body followed by the WAL's live
// frames, and compaction copies those bytes from disk, verifying them as
// it goes (compact.go). The file format and the crash sequence above are
// the same whichever way the snapshot was built.
//
// Group commit (PR 6): concurrent Submits enqueue encoded frames under a
// short queue lock; the first enqueuer becomes the flush leader and writes
// everything queued — including frames that arrive while it is writing —
// with a single write + fsync per batch, amortizing the fsync that
// previously serialized every Submit. Sequence numbers are assigned under
// the queue lock, so the file's frame order is always seq-ascending and a
// crash still leaves a clean prefix plus at most one torn frame. The
// leader appends each written batch's records to the store's log under the
// same lock, so the log holds exactly the written frames, in seq order.
//
// Fencing epochs (PR 10): every frame is stamped with the epoch of the
// primary that wrote it. Epoch 0 frames keep the PR 6 "w1" format
// byte-for-byte; a promotion bumps the epoch and subsequent frames use
// the "w2" format carrying it, so a replica can reject frames a fenced
// old primary wrote after losing leadership (see replication.go).

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"iter"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"wstrust/internal/core"
)

const (
	walName      = "wal.wsx"
	snapshotName = "snapshot.wsx"
	framePrefix  = "w1" // epoch-0 frame (legacy format, still written)
	framePrefixE = "w2" // epoch-stamped frame
	snapPrefix   = "s1" // legacy snapshot header, read-only
	snapPrefixV2 = "s2" // checksummed snapshot header

	// minFrameLen is the length of the shortest line ParseWire accepts,
	// "w1 1 00000000 " and its newline.
	minFrameLen = 15
)

// WALOptions tune the durability/throughput trade of a WAL-backed store.
// The zero value is safe and conservative.
type WALOptions struct {
	// SyncEvery batches fsyncs: the WAL file is fsynced once every
	// SyncEvery appended records (and always on Sync, Snapshot and
	// Close). Values below 2 fsync every group-commit batch — maximum
	// durability (a batch of one is a per-record fsync).
	SyncEvery int
	// SnapshotEvery, when positive, compacts automatically once the live
	// WAL accumulates that many frames: the full in-memory log is written
	// to a fresh snapshot and the WAL truncated to empty.
	SnapshotEvery int
}

// Recovery reports what Open found on disk.
type Recovery struct {
	// SnapshotRecords and WALRecords count the feedback entries restored
	// from each file.
	SnapshotRecords int
	WALRecords      int
	// SkippedRecords counts WAL frames the snapshot already covered
	// (a crash landed between snapshot rename and WAL truncation) and
	// frames whose sequence number does not exceed the one applied before
	// them, which only a mangled image holds: recovery applies each
	// sequence number at most once.
	SkippedRecords int
	// Torn reports that the WAL ended in a partial or corrupt frame;
	// TornBytes is how many trailing bytes were truncated away.
	Torn      bool
	TornBytes int64
	// SnapshotCorrupt reports that snapshot.wsx existed but failed its
	// header or checksum verification; recovery fell back to WAL-only
	// replay and SnapshotWarning carries the reason. Records written
	// before the last compaction are lost in this mode — the warning is
	// the operator's cue to re-seed the node from a replica.
	SnapshotCorrupt bool
	SnapshotWarning string
}

// Records is the total number of feedback entries recovered.
func (r Recovery) Records() int { return r.SnapshotRecords + r.WALRecords }

// String renders the recovery summary for daemon logs.
func (r Recovery) String() string {
	s := fmt.Sprintf("recovered %d records (%d snapshot + %d wal, %d skipped)",
		r.Records(), r.SnapshotRecords, r.WALRecords, r.SkippedRecords)
	if r.Torn {
		s += fmt.Sprintf("; truncated torn final record (%d bytes)", r.TornBytes)
	}
	if r.SnapshotCorrupt {
		s += fmt.Sprintf("; SNAPSHOT CORRUPT, fell back to wal-only replay (%s)", r.SnapshotWarning)
	}
	return s
}

// walWriter is the open WAL file of a durable store, with the group-commit
// queue. Committers enqueue frames and their records under mu; one leader
// at a time drains the queue to the file with mu released, so the fsync
// cost is shared by every frame in the batch, and appends each written
// batch's records to the store's log under mu. The file handle itself is
// written only by the flush leader (flushing set) or with the store
// world-quiesced (Snapshot/Sync/Close hold Store.state exclusively), never
// both at once.
type walWriter struct {
	dir  string
	path string
	f    *os.File
	opts WALOptions
	log  *recLog // the store's log, which lead appends written records to

	mu        sync.Mutex
	flushed   sync.Cond // signaled under mu after every batch write
	pending   walBatch  // guarded by mu: frames awaiting write
	spare     walBatch  // guarded by mu: recycled batch buffers
	flushing  bool      // guarded by mu: a leader is draining the queue
	acked     uint64    // guarded by mu: highest seq written to the file
	unsynced  int       // guarded by mu: frames written since the last fsync
	frames    int       // guarded by mu: frames in the file since compaction
	compactAt int       // guarded by mu: frames at which auto-compaction runs next
	broken    error     // guarded by mu: sticky first write/fsync failure
}

// walBatch is a stretch of the commit queue: encoded frames and the
// records they carry, in sequence order.
type walBatch struct {
	buf  []byte
	recs []record
}

// commitBatch assigns the next sequence numbers to fbs, enqueues their
// frames stamped with the writer's fencing epoch, and returns once every
// frame has been written (see await). The batch shares one group commit —
// and therefore at most one fsync — with whatever else is queued, which is
// what makes bulk trust-delta merges (Store.SubmitBatch) cheap: N records
// cost one leader drain instead of N rounds of the commit protocol.
// Sequence numbers are taken from seqSrc under the queue lock, so the
// file's frame order is seq-ascending.
//
//lint:hotpath commitBatch is on every Submit and bulk /local-trust merge; only the seq assignments and frame appends may run under the queue mutex.
func (w *walWriter) commitBatch(seqSrc *atomic.Uint64, epoch uint64, fbs []core.Feedback, payloads [][]byte) error {
	// Checksums cover only payload bytes: compute them all before taking
	// the queue lock; only the sequence numbers need the lock.
	crcs := make([]uint32, len(payloads))
	for i, p := range payloads {
		crcs[i] = crc32.ChecksumIEEE(p)
	}
	w.mu.Lock()
	if w.broken != nil {
		err := w.broken
		w.mu.Unlock()
		return err
	}
	var seq uint64
	for i, p := range payloads {
		seq = seqSrc.Add(1)
		w.pending.buf = appendFrame(w.pending.buf, epoch, seq, crcs[i], p)
		w.pending.recs = append(w.pending.recs, record{seq: seq, fb: fbs[i]}) //lint:hotalloc the queue's buffer is recycled through spare, so it grows only to the largest batch
	}
	return w.await(seq)
}

// commitReplicated enqueues frames that were assigned their sequence
// numbers and epochs by another node — the follower side of WAL shipping
// (Store.ApplyReplicated) — with their decoded records. The frames must be
// contiguous and extend the store's sequence exactly; seqSrc is advanced
// to the last frame under the queue lock, so the on-disk bytes of a
// replica's WAL match the primary's frame for frame (only the group-commit
// batching differs).
func (w *walWriter) commitReplicated(seqSrc *atomic.Uint64, frames []Frame, fbs []core.Feedback) error {
	crcs := make([]uint32, len(frames))
	for i := range frames {
		crcs[i] = crc32.ChecksumIEEE(frames[i].Payload)
	}
	w.mu.Lock()
	if w.broken != nil {
		err := w.broken
		w.mu.Unlock()
		return err
	}
	if got, want := frames[0].Seq, seqSrc.Load()+1; got != want {
		w.mu.Unlock()
		return fmt.Errorf("registry: %w: replicated frame seq %d, want %d", ErrSeqGap, got, want)
	}
	for i, f := range frames {
		w.pending.buf = appendFrame(w.pending.buf, f.Epoch, f.Seq, crcs[i], f.Payload)
		w.pending.recs = append(w.pending.recs, record{seq: f.Seq, fb: fbs[i]})
	}
	last := frames[len(frames)-1].Seq
	seqSrc.Store(last)
	return w.await(last)
}

// await returns once the frames up to seq last, which the caller has just
// enqueued, have been written to the WAL file (and fsynced, when the
// SyncEvery policy calls for it) and their records appended to the log.
// The first committer to find the queue idle becomes the leader and
// performs one write (+ one fsync) for every frame queued meanwhile; later
// committers merely wait for their frames' acknowledgement. Called with
// w.mu held; returns with it released.
//
// Any write or fsync failure marks the whole WAL broken: bytes of a torn
// batch may already be on disk, so retrying in place could interleave
// frames out of order. Every queued and future commit then fails with the
// same error, having logged nothing; recovery (Open) handles the torn tail.
//
//lint:guarded await runs with w.mu held by the committer that enqueued under it
func (w *walWriter) await(last uint64) error {
	if w.flushing {
		for w.acked < last && w.broken == nil {
			w.flushed.Wait()
		}
	} else {
		w.flushing = true
		w.lead()
		w.flushing = false
		w.flushed.Broadcast()
	}
	ok := w.acked >= last
	err := w.broken
	w.mu.Unlock()
	if !ok {
		return err
	}
	return nil
}

// lead drains the commit queue: repeatedly swap out the pending batch,
// write (and per policy fsync) it with the queue unlocked, then append its
// records to the log and acknowledge it. Batches leave the queue in seq
// order and their records enter the log only once written, under the
// queue lock, so the log holds exactly the written frames, in seq order.
// Frames enqueued while a batch is in flight are picked up by the next
// iteration, so the leader never returns with work queued. Called and
// returns with w.mu held, flushing set.
//
//lint:guarded lead runs with w.mu held (await); it relocks around file I/O
func (w *walWriter) lead() {
	for len(w.pending.recs) > 0 && w.broken == nil {
		b := w.pending
		w.pending = walBatch{buf: w.spare.buf[:0], recs: w.spare.recs[:0]}
		n := len(b.recs)
		needSync := w.opts.SyncEvery < 2 || w.unsynced+n >= w.opts.SyncEvery
		w.mu.Unlock()
		_, err := w.f.Write(b.buf)
		if err == nil && needSync {
			err = w.f.Sync()
		}
		w.mu.Lock()
		if err != nil {
			w.broken = fmt.Errorf("registry: wal group commit: %w", err)
		} else {
			w.log.add(b.recs...)
			w.frames += n
			if needSync {
				w.unsynced = 0
			} else {
				w.unsynced += n
			}
			w.acked = b.recs[n-1].seq
		}
		w.spare = walBatch{buf: b.buf[:0], recs: b.recs[:0]}
		w.flushed.Broadcast()
	}
}

// sync fsyncs the WAL file. Callers hold the store's state lock
// exclusively (world quiesced), so no commit is in flight and the queue is
// empty: every committer has returned, its frames written, unless the WAL
// is broken.
func (w *walWriter) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	if err := w.f.Sync(); err != nil { //lint:lockorder world quiesced: callers hold Store.state exclusively, so no other locker can block on w.mu
		w.broken = fmt.Errorf("registry: wal fsync: %w", err)
		return w.broken
	}
	w.unsynced = 0
	return nil
}

// shouldCompact reports whether the live WAL has accumulated enough frames
// to trigger auto-compaction.
func (w *walWriter) shouldCompact() bool {
	if w.opts.SnapshotEvery <= 0 {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.frames >= w.compactAt
}

// resetAfterCompact clears the frame accounting once the WAL file has been
// truncated under a fresh snapshot.
func (w *walWriter) resetAfterCompact() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.frames = 0
	w.unsynced = 0
	w.compactAt = w.opts.SnapshotEvery
}

// deferCompact moves the next auto-compaction a full SnapshotEvery frames
// past a failed one, so a persistent fault (a full disk, an unwritable
// temp file) costs one attempt per threshold rather than one per write.
func (w *walWriter) deferCompact() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.compactAt = w.frames + w.opts.SnapshotEvery
}

// Open builds (or recovers) a durable Store rooted at dir. It replays
// snapshot.wsx then wal.wsx, verifying checksums; a torn final WAL record
// — the state a crash mid-append leaves — is truncated away and reported
// in Recovery rather than failing the store, and a snapshot that fails its
// checksum is skipped (WAL-only replay) with a Recovery warning rather
// than refusing recovery. Subsequent Submits append to the WAL before
// touching memory, so anything acknowledged is durable up to the fsync
// batching window.
//
//lint:guarded Open constructs the store; it is not shared until returned
func Open(dir string, opts WALOptions) (*Store, Recovery, error) {
	var rec Recovery
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, rec, fmt.Errorf("registry: open %s: %w", dir, err)
	}
	s := NewStore()

	marks, err := loadMarks(filepath.Join(dir, epochName))
	if err != nil {
		return nil, rec, err
	}
	s.installMarksLocked(marks)

	snapFrames, facts, corrupt, err := readSnapshot(filepath.Join(dir, snapshotName))
	if err != nil {
		return nil, rec, err
	}
	if corrupt != nil {
		// Fall back to WAL-only replay: the snapshot's records are gone,
		// but the WAL suffix still restores everything since the last
		// compaction instead of failing recovery outright. The next
		// compaction replaces the rotted file with an empty body plus
		// the WAL.
		rec.SnapshotCorrupt = true
		rec.SnapshotWarning = corrupt.Error()
		facts = snapFacts{valid: true}
	} else {
		facts.valid = facts.valid && denseFrames(snapFrames, facts.lastSeq, marks)
	}

	walPath := filepath.Join(dir, walName)
	walFrames, walOffs, walEnd, err := readWAL(walPath, &rec)
	if err != nil {
		return nil, rec, err
	}

	// Both files are decoded: apply the snapshot's records, then the WAL's
	// behind them. A WAL frame the snapshot covers is skipped, as is any
	// frame whose seq an earlier one already took.
	for _, fr := range snapFrames {
		if s.applyRecovered(fr.seq, fr.fb) {
			rec.SnapshotRecords++
		} else {
			rec.SkippedRecords++
		}
	}
	if facts.lastSeq > s.seq.Load() {
		s.seq.Store(facts.lastSeq)
	}
	facts.walOff = -1
	for i, fr := range walFrames {
		if !s.applyRecovered(fr.seq, fr.fb) {
			rec.SkippedRecords++
			continue
		}
		if facts.walOff < 0 {
			facts.walOff = walOffs[i] // the first live frame
		}
		rec.WALRecords++
	}
	if facts.walOff < 0 {
		facts.walOff = walEnd // the snapshot covers every frame
	}
	s.snap = facts

	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, rec, fmt.Errorf("registry: open wal: %w", err)
	}
	w := &walWriter{
		dir:       dir,
		path:      walPath,
		f:         f,
		opts:      opts,
		log:       &s.log,
		frames:    rec.WALRecords + rec.SkippedRecords,
		compactAt: opts.SnapshotEvery,
	}
	w.flushed.L = &w.mu
	s.wal = w
	return s, rec, nil
}

// snapFrame is one decoded snapshot or WAL record. Open holds them until
// both files are read, so a corrupt snapshot never half-applies.
type snapFrame struct {
	epoch uint64
	seq   uint64
	fb    core.Feedback
}

// readSnapshot parses and verifies the compacted log. A missing snapshot
// is a fresh store (no frames, an empty body). I/O failures return err;
// any structural or checksum failure returns corrupt instead — the caller
// falls back to WAL-only replay. Records are collected and only handed
// back once the whole file verified, so a corrupt snapshot contributes
// nothing rather than a half-applied prefix.
func readSnapshot(path string) (frames []snapFrame, facts snapFacts, corrupt, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, snapFacts{valid: true}, nil, nil
	}
	if err != nil {
		return nil, snapFacts{}, nil, fmt.Errorf("registry: read snapshot: %w", err)
	}
	return parseSnapshotDoc(data, path)
}

// parseSnapshotDoc verifies and decodes a snapshot document (from disk or
// a replica transfer). Structural/checksum problems come back as corrupt,
// never half-applied records; label names the source in error messages.
// An s2 header must agree with its body: exactly count frames, the last
// at lastSeq. facts describes the document's header and body; the caller
// still checks the frames' sequence numbers and epochs (denseFrames).
func parseSnapshotDoc(data []byte, label string) (frames []snapFrame, facts snapFacts, corrupt, err error) {
	path := label
	line, body, ok := bytes.Cut(data, []byte{'\n'})
	if !ok {
		return nil, facts, fmt.Errorf("snapshot %s: missing header", path), nil
	}
	fields := strings.Fields(string(line))
	var count int
	var last uint64
	var crc uint32
	legacy := false
	switch {
	case len(fields) == 5 && fields[0] == snapPrefixV2:
		c, err1 := strconv.Atoi(fields[1])
		l, err2 := strconv.ParseUint(fields[2], 10, 64)
		wantCRC, err3 := strconv.ParseUint(fields[3], 16, 32)
		bodyLen, err4 := strconv.ParseInt(fields[4], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil || c < 0 || bodyLen < 0 {
			return nil, facts, fmt.Errorf("snapshot %s: bad header %q", path, line), nil
		}
		if int64(len(body)) != bodyLen {
			return nil, facts, fmt.Errorf("snapshot %s: body is %d bytes, header says %d", path, len(body), bodyLen), nil
		}
		if got := crc32.ChecksumIEEE(body); got != uint32(wantCRC) {
			return nil, facts, fmt.Errorf("snapshot %s: body checksum mismatch (%08x != %08x)", path, got, uint32(wantCRC)), nil
		}
		count, last, crc = c, l, uint32(wantCRC)
	case len(fields) == 3 && fields[0] == snapPrefix:
		// Legacy header: no body checksum; per-frame CRCs still verify.
		c, err1 := strconv.Atoi(fields[1])
		l, err2 := strconv.ParseUint(fields[2], 10, 64)
		if err1 != nil || err2 != nil || c < 0 {
			return nil, facts, fmt.Errorf("snapshot %s: bad header %q", path, line), nil
		}
		count, last, legacy = c, l, true
	default:
		return nil, facts, fmt.Errorf("snapshot %s: bad header %q", path, line), nil
	}
	// Every frame takes at least minFrameLen bytes, so a header claiming
	// more records than the body can hold does not size the slice.
	frames = make([]snapFrame, 0, min(count, len(body)/minFrameLen))
	rest := body
	for i := 0; i < count; i++ {
		line, next, ok := bytes.Cut(rest, []byte{'\n'})
		if !ok {
			return nil, facts, fmt.Errorf("snapshot %s: %d of %d records, then truncated", path, i, count), nil
		}
		rest = next
		epoch, seq, fb, err := parseFrame(line)
		if err != nil {
			return nil, facts, fmt.Errorf("snapshot %s record %d: %w", path, i, err), nil
		}
		frames = append(frames, snapFrame{epoch: epoch, seq: seq, fb: fb})
	}
	// The s2 checksum covers only the body, so the header's count and
	// lastSeq are checked against it: the body holds exactly count
	// frames, the last of them at lastSeq (0 for an empty body).
	if !legacy {
		if len(rest) != 0 {
			return nil, facts, fmt.Errorf("snapshot %s: %d bytes past the %d records the header counts", path, len(rest), count), nil
		}
		end := uint64(0)
		if count > 0 {
			end = frames[count-1].seq
		}
		if end != last {
			return nil, facts, fmt.Errorf("snapshot %s: last record has seq %d, header says %d", path, end, last), nil
		}
	}
	// A legacy body may trail bytes past its records; only the records
	// are carried forward, under a checksum taken now.
	used := body[:len(body)-len(rest)]
	facts = snapFacts{
		valid:   true,
		count:   count,
		lastSeq: last,
		crc:     crc,
		bodyOff: int64(len(line) + 1),
		bodyLen: int64(len(used)),
	}
	if legacy {
		facts.crc = crc32.ChecksumIEEE(used)
	}
	return frames, facts, nil, nil
}

// readWAL decodes the WAL's intact frames and truncates any torn tail, so
// future appends extend the durable prefix. offs[i] is the offset at which
// frames[i] starts; end is where the intact frames end.
func readWAL(path string, rec *Recovery) (frames []snapFrame, offs []int64, end int64, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil, 0, nil
	}
	if err != nil {
		return nil, nil, 0, fmt.Errorf("registry: read wal: %w", err)
	}
	rest := data
	for len(rest) > 0 {
		line, next, ok := bytes.Cut(rest, []byte{'\n'})
		if !ok {
			break // no newline: a frame torn mid-write
		}
		epoch, seq, fb, err := parseFrame(line)
		if err != nil {
			break // short or checksum-failed frame: torn tail starts here
		}
		frames = append(frames, snapFrame{epoch: epoch, seq: seq, fb: fb})
		offs = append(offs, end)
		end += int64(len(line)) + 1
		rest = next
	}
	if torn := int64(len(data)) - end; torn > 0 {
		rec.Torn = true
		rec.TornBytes = torn
		if err := os.Truncate(path, end); err != nil {
			return nil, nil, 0, fmt.Errorf("registry: truncate torn wal tail: %w", err)
		}
	}
	return frames, offs, end, nil
}

// appendFrame renders one WAL frame — prefix, optional epoch, sequence
// number, CRC-32 of the payload as fixed-width hex, payload, newline —
// appending into dst. Epoch-0 frames keep the legacy "w1" layout
// byte-for-byte; frames written after a promotion carry their epoch in
// the "w2" layout. It appends straight into the pending buffer with
// strconv, so the work under the queue mutex is the bytes themselves, with
// no per-frame allocation.
//
//lint:hotpath runs under walWriter.mu on every Submit
func appendFrame(dst []byte, epoch, seq uint64, crc uint32, payload []byte) []byte {
	if epoch == 0 {
		dst = append(dst, framePrefix...)
	} else {
		dst = append(dst, framePrefixE...)
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, epoch, 10)
	}
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, ' ')
	dst = appendHex8(dst, crc)
	dst = append(dst, ' ')
	dst = append(dst, payload...)
	return append(dst, '\n')
}

// parseFrame decodes and checksum-verifies one frame line (without its
// trailing newline) and decodes the feedback payload.
func parseFrame(line []byte) (epoch, seq uint64, fb core.Feedback, err error) {
	f, err := parseWire(line)
	if err != nil {
		return 0, 0, fb, err
	}
	fb, err = f.Feedback()
	if err != nil {
		return 0, 0, fb, err
	}
	return f.Epoch, f.Seq, fb, nil
}

// Durable reports whether the store is WAL-backed (built by Open, not
// NewStore).
func (s *Store) Durable() bool {
	s.state.RLock()
	defer s.state.RUnlock()
	return s.wal != nil
}

// Sync flushes and fsyncs any WAL frames the batching window is holding.
// A no-op on in-memory stores.
func (s *Store) Sync() error {
	s.state.Lock()
	defer s.state.Unlock()
	if s.wal == nil {
		return nil
	}
	return s.wal.sync()
}

// Snapshot compacts the log: the full store is written to a fresh
// snapshot (atomically, via temp + rename) and the WAL truncated to empty.
// Open replays the result to the identical store.
func (s *Store) Snapshot() error {
	s.state.Lock()
	defer s.state.Unlock()
	if s.wal == nil {
		return errors.New("registry: Snapshot on a store with no WAL (use Open)")
	}
	return s.snapshotLocked()
}

// OnCompactionError installs fn to receive the error of every failed
// auto-compaction (nil uninstalls). A write that crosses SnapshotEvery
// compacts after its record is durable and applied, so it reports only
// its own result: a failed compaction goes to fn, and the next one is
// attempted once another SnapshotEvery frames accumulate. fn runs on the
// writing goroutine after the store's locks are released.
func (s *Store) OnCompactionError(fn func(error)) {
	if fn == nil {
		s.compactErr.Store(nil)
		return
	}
	s.compactErr.Store(&fn)
}

// compact runs the auto-compaction a write triggered, re-checking the
// threshold under the exclusive state lock so concurrent triggers collapse
// into one snapshot. A failure is handed to the OnCompactionError handler,
// never to the write.
func (s *Store) compact() {
	err := func() error {
		s.state.Lock()
		defer s.state.Unlock()
		if s.closed || s.wal == nil || !s.wal.shouldCompact() {
			return nil
		}
		if err := s.snapshotLocked(); err != nil {
			s.wal.deferCompact()
			return err
		}
		return nil
	}()
	if fn := s.compactErr.Load(); err != nil && fn != nil {
		(*fn)(fmt.Errorf("registry: auto-compaction: %w", err))
	}
}

// buildSnapshotDoc renders the full snapshot document — checksummed s2
// header plus one frame per record — for the records recs yields in
// ascending sequence order, with the facts of the document. Each frame
// carries its record's own sequence number and the epoch the marks assign
// it, so a replica seeded from this document, or the store reopened from
// it, reconstructs the same history. The header's lastSeq is the last
// record's sequence number (0 when there is none).
func buildSnapshotDoc(recs iter.Seq2[uint64, core.Feedback], marks []EpochMark) ([]byte, snapFacts, error) {
	var body []byte
	count, lastSeq := 0, uint64(0)
	for seq, fb := range recs {
		payload, err := marshalRecord(fb)
		if err != nil {
			return nil, snapFacts{}, err
		}
		body = appendFrame(body, epochAt(marks, seq), seq, crc32.ChecksumIEEE(payload), payload)
		count++
		lastSeq = seq
	}
	facts := snapFacts{
		valid:   true,
		count:   count,
		lastSeq: lastSeq,
		crc:     crc32.ChecksumIEEE(body),
		bodyLen: int64(len(body)),
	}
	header := fmt.Sprintf("%s %d %d %08x %d\n",
		snapPrefixV2, count, lastSeq, facts.crc, len(body))
	facts.bodyOff = int64(len(header))
	return append([]byte(header), body...), facts, nil
}

// snapshotLocked writes snapshot.wsx.tmp, fsyncs, renames it over
// snapshot.wsx, fsyncs the directory, then truncates the WAL. A crash at
// any point leaves a recoverable pair: before the rename the old
// snapshot+WAL still replay; after it, WAL frames the new snapshot covers
// are skipped by sequence number. The world is quiesced (state held
// exclusively), so every acknowledged record is both durable and logged.
//
// The new file is the old snapshot body plus the WAL's live frames,
// copied and verified by extendSnapshot. Only when a check fails does it
// re-encode every record from the log in memory, which also heals a
// rotted file.
//
//lint:guarded snapshotLocked runs with s.state held by Snapshot/compact
func (s *Store) snapshotLocked() error {
	if err := s.wal.sync(); err != nil {
		return err
	}
	w := s.wal
	next, err := snapFacts{}, errStale
	if s.snap.valid {
		next, err = s.extendSnapshot()
	}
	if errors.Is(err, errStale) {
		var doc []byte
		if doc, next, err = buildSnapshotDoc(s.log.view().all(), s.Marks()); err == nil {
			err = writeFileAtomic(w.dir, snapshotName, doc)
		}
	}
	if err != nil {
		return fmt.Errorf("registry: snapshot: %w", err)
	}
	// The snapshot is durable; the WAL's frames are now redundant.
	if err := w.f.Truncate(0); err != nil {
		// The WAL still holds frames the new snapshot covers; the next
		// compaction re-encodes from memory.
		s.snap = snapFacts{}
		return fmt.Errorf("registry: wal truncate after snapshot: %w", err)
	}
	s.snap = next
	w.resetAfterCompact()
	return nil
}

// writeFileAtomic lands data at dir/name via the temp + fsync + rename +
// dir-fsync dance, so the file is never observed half written.
func writeFileAtomic(dir, name string, data []byte) error {
	return replaceFile(dir, name, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// replaceFile is writeFileAtomic with the contents written by fill: it
// creates dir/name.tmp, lets fill write it, fsyncs and closes it, renames
// it over dir/name and fsyncs dir. When fill fails nothing is renamed.
func replaceFile(dir, name string, fill func(f *os.File) error) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	werr := fill(f)
	if werr == nil {
		werr = f.Sync()
	}
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	if cerr != nil {
		return cerr
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	return fsyncDir(dir)
}

// Close fsyncs and closes the WAL. The store stays readable; further
// Submits fail. A no-op on in-memory stores.
func (s *Store) Close() error {
	s.state.Lock()
	defer s.state.Unlock()
	if s.wal == nil {
		return nil
	}
	serr := s.wal.sync()
	cerr := s.wal.f.Close()
	s.wal = nil
	s.closed = true
	if serr != nil {
		return serr
	}
	if cerr != nil {
		return fmt.Errorf("registry: wal close: %w", cerr)
	}
	return nil
}

// fsyncDir makes a directory-entry change (rename) durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("registry: open dir for fsync: %w", err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("registry: fsync dir: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("registry: close dir: %w", cerr)
	}
	return nil
}
