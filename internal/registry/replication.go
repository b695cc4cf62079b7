package registry

// Replication surface of the store (PR 10). A primary ships its committed
// WAL frames to followers; a follower applies them through
// ApplyReplicated, which re-runs the exact durable path Submit uses (WAL
// group commit, whose leader appends the written records to the log), so
// a replica's on-disk log is byte-identical to the primary's frame for
// frame.
//
// Fencing epochs make failover safe. Every frame carries the epoch of the
// primary that wrote it (epoch 0 frames keep the legacy "w1" layout).
// Promoting a follower appends an EpochMark {epoch+1, lastSeq+1} to the
// durable epoch history (epoch.wsx); frames a deposed primary keeps
// writing at the old epoch then fail ApplyReplicated's epoch check, and a
// rejoining old primary whose history disagrees with the marks is detected
// as diverged and must re-seed from a snapshot. The marks are tiny
// (one line per promotion, ever) and shipped alongside the stream.
//
// The read side — FramesSince, WriteSnapshotTo — reads the log without
// holding its lock, so shipping frames never blocks the write path.
// Updates exposes a channel-close broadcast that fires on every commit,
// letting a streamer block for "new frames" without polling.

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"wstrust/internal/core"
)

const (
	epochName   = "epoch.wsx"
	epochPrefix = "e1"
)

var (
	// ErrSeqGap reports replicated frames that do not contiguously extend
	// the store's sequence — the follower missed frames and must restream.
	ErrSeqGap = errors.New("registry: replicated frames do not extend the log")
	// ErrFenced reports a frame stamped with an epoch the store's mark
	// history does not assign to its sequence number — the write of a
	// deposed primary.
	ErrFenced = errors.New("registry: frame epoch fenced")
	// ErrHorizon reports a FramesSince cursor older than the log's first
	// record; the caller must bootstrap from a snapshot instead.
	ErrHorizon = errors.New("registry: requested frames are before the log horizon")
)

// EpochMark records one promotion: frames with sequence numbers >= Start
// belong to Epoch (until a later mark starts).
type EpochMark struct {
	Epoch uint64 `json:"epoch"`
	Start uint64 `json:"start"`
}

// Frame is one replicated WAL record in its wire form: the epoch and
// sequence number the primary assigned plus the encoded feedback payload.
type Frame struct {
	Epoch   uint64
	Seq     uint64
	Payload []byte
}

// AppendWire renders the frame in the WAL/stream wire format (one line,
// newline-terminated), appending into dst.
func (f Frame) AppendWire(dst []byte) []byte {
	return appendFrame(dst, f.Epoch, f.Seq, crc32.ChecksumIEEE(f.Payload), f.Payload)
}

// Feedback decodes the frame's payload (see decodeRecord).
func (f Frame) Feedback() (core.Feedback, error) {
	fb, err := decodeRecord(f.Payload)
	if err != nil {
		return core.Feedback{}, fmt.Errorf("registry: frame %d payload: %w", f.Seq, err)
	}
	return fb, nil
}

// ParseWire decodes and checksum-verifies one wire line (without its
// trailing newline). Both the legacy epoch-0 "w1" and the epoch-stamped
// "w2" layouts are accepted. The returned payload is a copy, so line may
// be reused.
func ParseWire(line []byte) (Frame, error) {
	f, err := parseWire(line)
	f.Payload = bytes.Clone(f.Payload)
	return f, err
}

// parseWire is ParseWire in place: the payload it returns aliases line.
func parseWire(line []byte) (Frame, error) {
	var f Frame
	s := line
	switch {
	case bytes.HasPrefix(s, []byte(framePrefixE+" ")):
		epochStr, tail, ok := bytes.Cut(s[len(framePrefixE)+1:], []byte{' '})
		if !ok {
			return f, fmt.Errorf("registry: short frame %q", line)
		}
		epoch, err := strconv.ParseUint(string(epochStr), 10, 64)
		if err != nil || epoch == 0 {
			return f, fmt.Errorf("registry: bad frame epoch %q", epochStr)
		}
		f.Epoch = epoch
		s = tail
	case bytes.HasPrefix(s, []byte(framePrefix+" ")):
		s = s[len(framePrefix)+1:]
	default:
		return f, fmt.Errorf("registry: bad frame prefix in %q", clipForError(line))
	}
	seqStr, rest, ok := bytes.Cut(s, []byte{' '})
	if !ok {
		return f, fmt.Errorf("registry: short frame %q", clipForError(line))
	}
	crcStr, payload, ok := bytes.Cut(rest, []byte{' '})
	if !ok {
		return f, fmt.Errorf("registry: short frame %q", clipForError(line))
	}
	seq, err := strconv.ParseUint(string(seqStr), 10, 64)
	if err != nil {
		return f, fmt.Errorf("registry: bad frame seq %q: %w", seqStr, err)
	}
	want, err := strconv.ParseUint(string(crcStr), 16, 32)
	if err != nil || len(crcStr) != 8 {
		return f, fmt.Errorf("registry: bad frame checksum field %q", crcStr)
	}
	if got := crc32.ChecksumIEEE(payload); got != uint32(want) {
		return f, fmt.Errorf("registry: frame %d checksum mismatch (%08x != %08x)", seq, got, uint32(want))
	}
	f.Seq = seq
	f.Payload = payload
	return f, nil
}

// clipForError bounds a corrupt line quoted into an error message.
func clipForError(line []byte) []byte {
	if len(line) > 64 {
		return line[:64]
	}
	return line
}

// LastSeq returns the highest assigned sequence number. On a durable
// store that includes a commit still in flight, or one whose write failed:
// a commit takes its seqs before its frames are written and logged, so
// LastSeq can run ahead of Len and FramesSince.
func (s *Store) LastSeq() uint64 { return s.seq.Load() }

// Epoch returns the store's current fencing epoch.
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// Marks returns a copy of the epoch-mark history.
func (s *Store) Marks() []EpochMark {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	return append([]EpochMark(nil), s.marks...)
}

// EpochAt returns the epoch the mark history assigns to a sequence number.
func (s *Store) EpochAt(seq uint64) uint64 {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	return epochAt(s.marks, seq)
}

// epochAt resolves a sequence number against a mark history: the epoch of
// the last mark whose Start is <= seq, or 0 before any mark.
func epochAt(marks []EpochMark, seq uint64) uint64 {
	e := uint64(0)
	for _, m := range marks {
		if m.Start > seq {
			break
		}
		e = m.Epoch
	}
	return e
}

// validMarks checks a mark history is well-formed: strictly ascending
// epochs and non-decreasing starts.
func validMarks(marks []EpochMark) error {
	for i, m := range marks {
		if m.Epoch == 0 {
			return fmt.Errorf("registry: epoch mark %d has epoch 0", i)
		}
		if i > 0 && (m.Epoch <= marks[i-1].Epoch || m.Start < marks[i-1].Start) {
			return fmt.Errorf("registry: epoch marks not monotone at %d (%v after %v)", i, m, marks[i-1])
		}
	}
	return nil
}

// installMarksLocked installs a mark history during Open, before the store
// is shared.
//
//lint:guarded installMarksLocked runs inside Open before the store escapes
func (s *Store) installMarksLocked(marks []EpochMark) {
	s.marks = marks
	if len(marks) > 0 {
		s.epoch.Store(marks[len(marks)-1].Epoch)
	}
}

// Promote fences the store into a new epoch: with the world quiesced it
// appends a mark {epoch+1, lastSeq+1} to the durable epoch history and
// adopts the new epoch for subsequent commits. Promote is idempotent in
// effect but not in value — each call opens a fresh epoch — so callers
// (the wsxd promotion state machine) guard against double promotion.
// In-flight Submits complete under the old epoch before the mark lands.
func (s *Store) Promote() (uint64, error) {
	s.state.Lock()
	defer s.state.Unlock()
	if s.closed {
		return 0, errors.New("registry: promote on closed store")
	}
	next := EpochMark{Epoch: s.epoch.Load() + 1, Start: s.seq.Load() + 1}
	nm := append(s.Marks(), next)
	if s.wal != nil {
		if err := persistMarks(s.wal.dir, nm); err != nil {
			return 0, err
		}
	}
	s.replMu.Lock()
	s.marks = nm
	s.replMu.Unlock()
	s.epoch.Store(next.Epoch)
	return next.Epoch, nil
}

// InstallMarks adopts a primary's mark history on a follower. The current
// history must be a prefix of the new one — anything else means the
// follower's log diverged from the primary's and the caller must re-seed.
// The new history is persisted before it takes effect.
func (s *Store) InstallMarks(marks []EpochMark) error {
	if err := validMarks(marks); err != nil {
		return err
	}
	s.state.RLock()
	defer s.state.RUnlock()
	if s.closed {
		return errors.New("registry: install marks on closed store")
	}
	cur := s.Marks()
	if len(cur) > len(marks) {
		return fmt.Errorf("%w: local history has %d marks, primary %d", ErrFenced, len(cur), len(marks))
	}
	for i, m := range cur {
		if m != marks[i] {
			return fmt.Errorf("%w: mark %d differs (local %v, primary %v)", ErrFenced, i, m, marks[i])
		}
	}
	if len(cur) == len(marks) {
		return nil
	}
	// Extension marks must start beyond the local log. A new mark whose
	// Start falls at or below the local sequence means this store already
	// holds frames in the new epoch's range that were written under an
	// older epoch — the classic deposed-primary overlap (or a follower
	// that kept draining a dead primary's buffered frames past the
	// promotion point). The mark history alone can't repair that; the
	// caller must re-seed.
	for _, m := range marks[len(cur):] {
		if m.Start <= s.seq.Load() {
			return fmt.Errorf("%w: local log at seq %d overlaps epoch %d starting at %d",
				ErrFenced, s.seq.Load(), m.Epoch, m.Start)
		}
	}
	if s.wal != nil {
		if err := persistMarks(s.wal.dir, marks); err != nil {
			return err
		}
	}
	s.replMu.Lock()
	s.marks = append([]EpochMark(nil), marks...)
	s.replMu.Unlock()
	if len(marks) > 0 {
		s.epoch.Store(marks[len(marks)-1].Epoch)
	}
	return nil
}

// persistMarks writes the epoch history atomically (temp + rename).
func persistMarks(dir string, marks []EpochMark) error {
	var buf []byte
	for _, m := range marks {
		buf = append(buf, epochPrefix...)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, m.Epoch, 10)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, m.Start, 10)
		buf = append(buf, '\n')
	}
	if err := writeFileAtomic(dir, epochName, buf); err != nil {
		return fmt.Errorf("registry: persist epoch marks: %w", err)
	}
	return nil
}

// loadMarks reads the epoch history written by persistMarks. A missing
// file is an empty (epoch 0) history.
func loadMarks(path string) ([]EpochMark, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("registry: read epoch marks: %w", err)
	}
	var marks []EpochMark
	for i, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[0] != epochPrefix {
			return nil, fmt.Errorf("registry: epoch marks line %d: bad line %q", i, line)
		}
		e, err1 := strconv.ParseUint(fields[1], 10, 64)
		st, err2 := strconv.ParseUint(fields[2], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("registry: epoch marks line %d: bad line %q", i, line)
		}
		marks = append(marks, EpochMark{Epoch: e, Start: st})
	}
	if err := validMarks(marks); err != nil {
		return nil, err
	}
	return marks, nil
}

// Updates returns a channel that is closed when a commit lands after this
// call. Grab the channel before checking LastSeq and no wakeup can be
// lost: any commit after the Updates call closes the returned channel.
func (s *Store) Updates() <-chan struct{} {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	return s.commitCh
}

// notifyCommit wakes everyone blocked on Updates by closing the current
// broadcast channel and installing a fresh one. The close happens outside
// the mutex (channel ops under a held lock are a lockorder smell).
func (s *Store) notifyCommit() {
	s.commitMu.Lock()
	ch := s.commitCh
	s.commitCh = make(chan struct{})
	s.commitMu.Unlock()
	close(ch)
}

// FramesSince returns up to limit committed frames with sequence numbers
// > after, in order. It binary-searches the log for the cursor and reads
// the records behind it without blocking the write path. An empty result
// means the caller is caught up; ErrHorizon means after predates the log
// (a store reopened WAL-only from a corrupt snapshot starts past seq 1)
// and the caller must bootstrap from a snapshot. Only the contiguous run
// starting exactly at the cursor ships: a store recovered from a mangled
// image can hold a gap in its seqs, which no frame can cross.
func (s *Store) FramesSince(after uint64, limit int) ([]Frame, error) {
	if limit <= 0 {
		limit = 1 << 9
	}
	v := s.log.view()
	if v.n == 0 || after >= v.at(v.n-1).seq {
		return nil, nil
	}
	if after+1 < v.at(0).seq {
		return nil, fmt.Errorf("%w: cursor %d predates the log", ErrHorizon, after)
	}
	marks := s.Marks()
	i := sort.Search(v.n, func(i int) bool { return v.at(i).seq > after })
	frames := make([]Frame, 0, min(limit, v.n-i))
	for ; i < v.n && len(frames) < limit; i++ {
		r := v.at(i)
		if r.seq != after+1+uint64(len(frames)) {
			break // gap: stop at the contiguous run from the cursor
		}
		payload, err := marshalRecord(r.fb)
		if err != nil {
			return nil, fmt.Errorf("registry: encode frame: %w", err)
		}
		frames = append(frames, Frame{Epoch: epochAt(marks, r.seq), Seq: r.seq, Payload: payload})
	}
	return frames, nil
}

// ApplyReplicated appends frames a primary shipped, running the same
// durable path as Submit: the records enter the log once the WAL group
// commit has written them. The batch must contiguously extend the store's
// sequence (ErrSeqGap otherwise) and every frame's epoch must match what
// the installed mark history assigns to its sequence number (ErrFenced
// otherwise — the frame was written by a deposed primary). Replicated
// records do not count as consumer messages; they were counted at first
// submission.
//
// The store must not accept local Submits concurrently — replica roles
// are exclusive (wsxd rejects writes in follower role), and the seq
// contiguity check enforces it.
func (s *Store) ApplyReplicated(frames []Frame) ([]core.Feedback, error) {
	if len(frames) == 0 {
		return nil, nil
	}
	fbs := make([]core.Feedback, len(frames))
	for i, f := range frames {
		if i > 0 && f.Seq != frames[i-1].Seq+1 {
			return nil, fmt.Errorf("%w: frame %d follows %d", ErrSeqGap, f.Seq, frames[i-1].Seq)
		}
		if want := s.EpochAt(f.Seq); f.Epoch != want {
			return nil, fmt.Errorf("%w: frame %d stamped epoch %d, marks say %d", ErrFenced, f.Seq, f.Epoch, want)
		}
		fb, err := f.Feedback()
		if err != nil {
			return nil, err
		}
		if err := fb.Validate(); err != nil {
			return nil, fmt.Errorf("registry: replicated frame %d: %w", f.Seq, err)
		}
		fbs[i] = fb
	}
	s.state.RLock()
	if s.closed {
		s.state.RUnlock()
		return nil, errors.New("registry: store is closed")
	}
	if want := s.seq.Load() + 1; frames[0].Seq != want {
		s.state.RUnlock()
		return nil, fmt.Errorf("%w: batch starts at %d, want %d", ErrSeqGap, frames[0].Seq, want)
	}
	if s.wal != nil {
		if err := s.wal.commitReplicated(&s.seq, frames, fbs); err != nil {
			s.state.RUnlock()
			return nil, err
		}
	} else {
		s.log.mu.Lock()
		for i := range fbs {
			s.log.push(record{seq: frames[i].Seq, fb: fbs[i]})
		}
		s.seq.Store(frames[len(frames)-1].Seq)
		s.log.mu.Unlock()
	}
	s.endWrite()
	return fbs, nil
}

// WriteSnapshotTo streams the store's full state in the checksummed
// snapshot document format — the payload of a replica bootstrap transfer.
// It walks the log without its lock, so concurrent submits are not
// blocked. The document stops at the first sequence gap, which only a
// store recovered from a mangled image holds; its lastSeq is the last
// record's.
func (s *Store) WriteSnapshotTo(w io.Writer) (records int, lastSeq uint64, err error) {
	prefix := func(yield func(uint64, core.Feedback) bool) {
		prev := uint64(0) // no record has sequence number 0
		for seq, fb := range s.log.view().all() {
			if (prev != 0 && seq != prev+1) || !yield(seq, fb) {
				return
			}
			prev = seq
		}
	}
	doc, facts, err := buildSnapshotDoc(prefix, 0, s.Marks())
	if err != nil {
		return 0, 0, fmt.Errorf("registry: snapshot transfer: %w", err)
	}
	if _, err := w.Write(doc); err != nil {
		return 0, 0, fmt.Errorf("registry: snapshot transfer: %w", err)
	}
	return facts.count, facts.lastSeq, nil
}

// SeedFromSnapshot bootstraps an empty store from a snapshot document (as
// produced by WriteSnapshotTo). The document is verified strictly — a
// transfer that fails its checksum is rejected, never half-applied. On a
// durable store the document bytes land as the local snapshot file
// (atomically) and the WAL is truncated, so a crash right after the seed
// recovers to the same state. The store must be empty (no records, seq 0).
// As in Open, each sequence number is applied at most once; it returns
// the number of records applied.
func (s *Store) SeedFromSnapshot(data []byte) (int, error) {
	frames, facts, corrupt, err := parseSnapshotDoc(data, "snapshot transfer")
	if err == nil && corrupt != nil {
		err = corrupt
	}
	if err != nil {
		return 0, fmt.Errorf("registry: seed: %w", err)
	}
	s.state.Lock()
	if s.closed {
		s.state.Unlock()
		return 0, errors.New("registry: store is closed")
	}
	if s.Len() != 0 || s.seq.Load() != 0 {
		s.state.Unlock()
		return 0, errors.New("registry: seed requires an empty store (ResetReplica first)")
	}
	if s.wal != nil {
		s.snap = snapFacts{}
		if err := writeFileAtomic(s.wal.dir, snapshotName, data); err != nil {
			s.state.Unlock()
			return 0, fmt.Errorf("registry: seed: %w", err)
		}
		if err := s.wal.f.Truncate(0); err != nil {
			s.state.Unlock()
			return 0, fmt.Errorf("registry: seed: truncate wal: %w", err)
		}
		s.wal.resetForReseed()
		// The document is the local snapshot now; it extends byte for
		// byte only if its frames carry the epochs the installed marks
		// give them.
		facts.valid = facts.valid && denseFrames(frames, facts.lastSeq, s.Marks())
		s.snap = facts
	}
	n := 0
	for _, fr := range frames {
		if s.applyRecovered(fr.seq, fr.fb) {
			n++
		}
	}
	if facts.lastSeq > s.seq.Load() {
		s.seq.Store(facts.lastSeq)
	}
	s.state.Unlock()
	s.notifyCommit()
	return n, nil
}

// ResetReplica wipes the store back to an empty, epoch-0 state: in-memory
// records, sequence counter, epoch marks, and (on durable stores) the WAL,
// snapshot and epoch files. It is the "my history diverged from the
// primary's" escape hatch a rejoining fenced node takes before re-seeding
// via SeedFromSnapshot.
func (s *Store) ResetReplica() error {
	s.state.Lock()
	if s.closed {
		s.state.Unlock()
		return errors.New("registry: store is closed")
	}
	// Fresh chunks, never the old ones: a reader may still hold them.
	s.log.mu.Lock()
	s.log.chunks, s.log.n = nil, 0
	s.log.mu.Unlock()
	s.seq.Store(0)
	if s.wal != nil {
		s.snap = snapFacts{}
		if err := s.wal.f.Truncate(0); err != nil {
			s.state.Unlock()
			return fmt.Errorf("registry: reset replica: truncate wal: %w", err)
		}
		s.wal.resetForReseed()
		for _, name := range []string{snapshotName, epochName} {
			if err := os.Remove(filepath.Join(s.wal.dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				s.state.Unlock()
				return fmt.Errorf("registry: reset replica: remove %s: %w", name, err)
			}
		}
		s.snap = snapFacts{valid: true} // no snapshot, empty WAL
	}
	s.replMu.Lock()
	s.marks = nil
	s.replMu.Unlock()
	s.epoch.Store(0)
	s.state.Unlock()
	s.notifyCommit()
	return nil
}

// resetForReseed clears the writer's queue accounting after the WAL file
// was truncated with the world quiesced (ResetReplica, SeedFromSnapshot).
func (w *walWriter) resetForReseed() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pending = walBatch{}
	w.acked = 0
	w.unsynced = 0
	w.frames = 0
	w.compactAt = w.opts.SnapshotEvery
}
