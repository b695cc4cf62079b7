package registry

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"wstrust/internal/core"
)

// frameFor renders record i as the wire frame (epoch, seq) — the shape a
// primary ships.
func frameFor(t *testing.T, epoch, seq uint64, i int) Frame {
	t.Helper()
	payload, err := marshalRecord(richFeedback(i))
	if err != nil {
		t.Fatal(err)
	}
	return Frame{Epoch: epoch, Seq: seq, Payload: payload}
}

func TestFrameWireRoundTrip(t *testing.T) {
	for _, epoch := range []uint64{0, 1, 7} {
		fr := frameFor(t, epoch, 42, 3)
		wire := fr.AppendWire(nil)
		if wire[len(wire)-1] != '\n' {
			t.Fatalf("epoch %d: wire frame not newline-terminated", epoch)
		}
		got, err := ParseWire(wire[:len(wire)-1])
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if got.Epoch != epoch || got.Seq != 42 || !bytes.Equal(got.Payload, fr.Payload) {
			t.Fatalf("epoch %d: round trip mangled frame: %+v", epoch, got)
		}
		// Epoch-0 frames must keep the legacy w1 layout byte for byte.
		if epoch == 0 && !bytes.HasPrefix(wire, []byte("w1 ")) {
			t.Fatalf("epoch 0 frame lost legacy layout: %q", wire[:8])
		}
		if epoch != 0 && !bytes.HasPrefix(wire, []byte("w2 ")) {
			t.Fatalf("epoch %d frame not in w2 layout: %q", epoch, wire[:8])
		}
	}
}

func TestFrameWireRejectsCorruption(t *testing.T) {
	fr := frameFor(t, 3, 9, 0)
	wire := fr.AppendWire(nil)
	line := wire[:len(wire)-1]
	// Flip one payload byte: the CRC must catch it.
	bad := append([]byte(nil), line...)
	bad[len(bad)-2] ^= 0x40
	if _, err := ParseWire(bad); err == nil {
		t.Fatal("corrupted payload parsed cleanly")
	}
	if _, err := ParseWire([]byte("w9 1 2 deadbeef {}")); err == nil {
		t.Fatal("unknown frame prefix parsed cleanly")
	}
	if _, err := ParseWire([]byte("w2 0 2 00000000 {}")); err == nil {
		t.Fatal("w2 frame with epoch 0 parsed cleanly")
	}
}

func TestPromoteOpensEpochAndPersists(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, WALOptions{})
	submitN(t, s, 0, 10)
	epoch, err := s.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || s.Epoch() != 1 {
		t.Fatalf("promote gave epoch %d (store %d), want 1", epoch, s.Epoch())
	}
	if got := s.EpochAt(10); got != 0 {
		t.Fatalf("pre-promotion seq at epoch %d, want 0", got)
	}
	if got := s.EpochAt(11); got != 1 {
		t.Fatalf("post-promotion seq at epoch %d, want 1", got)
	}
	submitN(t, s, 10, 15)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The mark history and the post-promotion frames' epochs survive
	// recovery.
	re, rec := openT(t, dir, WALOptions{})
	defer func() {
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if rec.Records() != 15 {
		t.Fatalf("recovered %d records, want 15", rec.Records())
	}
	if re.Epoch() != 1 {
		t.Fatalf("recovered epoch %d, want 1", re.Epoch())
	}
	if got := re.EpochAt(12); got != 1 {
		t.Fatalf("recovered frame epoch %d, want 1", got)
	}
}

func TestInstallMarksPrefixRules(t *testing.T) {
	s := NewStore()
	marks := []EpochMark{{Epoch: 1, Start: 11}, {Epoch: 2, Start: 21}}
	if err := s.InstallMarks(marks); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 2 {
		t.Fatalf("epoch %d after install, want 2", s.Epoch())
	}
	// Same history again: no-op.
	if err := s.InstallMarks(marks); err != nil {
		t.Fatal(err)
	}
	// Extension: fine.
	if err := s.InstallMarks(append(marks[:2:2], EpochMark{Epoch: 3, Start: 31})); err != nil {
		t.Fatal(err)
	}
	// Shorter history: the source is behind us — fenced.
	if err := s.InstallMarks(marks); !errors.Is(err, ErrFenced) {
		t.Fatalf("shorter history gave %v, want ErrFenced", err)
	}
	// Divergent prefix: fenced.
	div := []EpochMark{{Epoch: 1, Start: 11}, {Epoch: 2, Start: 25}, {Epoch: 3, Start: 31}, {Epoch: 4, Start: 41}}
	if err := s.InstallMarks(div); !errors.Is(err, ErrFenced) {
		t.Fatalf("divergent prefix gave %v, want ErrFenced", err)
	}
	// Invalid histories are rejected outright.
	if err := s.InstallMarks([]EpochMark{{Epoch: 0, Start: 1}}); err == nil {
		t.Fatal("epoch-0 mark accepted")
	}
	if err := s.InstallMarks([]EpochMark{{Epoch: 2, Start: 10}, {Epoch: 1, Start: 20}}); err == nil {
		t.Fatal("descending epochs accepted")
	}
}

// TestInstallMarksRejectsOverlappingStart is the deposed-primary overlap
// guard: a new mark that starts at or below the local sequence means the
// local log holds old-epoch frames inside the new epoch's range — the
// follower must re-seed, not adopt.
func TestInstallMarksRejectsOverlappingStart(t *testing.T) {
	s := NewStore()
	for i := 0; i < 30; i++ {
		if err := s.Submit(richFeedback(i)); err != nil {
			t.Fatal(err)
		}
	}
	err := s.InstallMarks([]EpochMark{{Epoch: 1, Start: 25}})
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("overlapping mark start gave %v, want ErrFenced", err)
	}
	// A mark starting exactly one past the log is a clean extension.
	if err := s.InstallMarks([]EpochMark{{Epoch: 1, Start: 31}}); err != nil {
		t.Fatal(err)
	}
}

func TestFramesSinceAndUpdates(t *testing.T) {
	s := NewStore()
	submitN(t, s, 0, 20)
	frames, err := s.FramesSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 20 || frames[0].Seq != 1 || frames[19].Seq != 20 {
		t.Fatalf("FramesSince(0) gave %d frames [%d..%d], want 20 [1..20]", len(frames), frames[0].Seq, frames[len(frames)-1].Seq)
	}
	// The frames decode back to the submitted records.
	fb, err := frames[4].Feedback()
	if err != nil {
		t.Fatal(err)
	}
	if fb.Consumer != richFeedback(4).Consumer {
		t.Fatalf("frame 5 decodes to consumer %s", fb.Consumer)
	}
	// Cursor and batch bounds.
	frames, err = s.FramesSince(15, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 3 || frames[0].Seq != 16 {
		t.Fatalf("FramesSince(15, 3) gave %d frames from %d", len(frames), frames[0].Seq)
	}
	// Caught up: empty.
	if frames, err = s.FramesSince(20, 0); err != nil || len(frames) != 0 {
		t.Fatalf("caught-up cursor gave %d frames, err %v", len(frames), err)
	}

	// The commit broadcast: grab the channel, commit, expect it closed.
	updates := s.Updates()
	select {
	case <-updates:
		t.Fatal("updates channel closed before any commit")
	default:
	}
	if err := s.Submit(richFeedback(99)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-updates:
	default:
		t.Fatal("commit did not close the updates channel")
	}
}

// sameFrames reports whether two frame lists match frame for frame.
func sameFrames(a, b []Frame) bool {
	return slices.EqualFunc(a, b, func(x, y Frame) bool {
		return x.Epoch == y.Epoch && x.Seq == y.Seq && bytes.Equal(x.Payload, y.Payload)
	})
}

// TestGappedLogAcrossChunks: a store recovered from a mangled image can
// hold a gap in its seqs. The test builds such a log directly — records
// 1..n but one, with the gap between the last record of the first chunk
// and the first of the second — and checks every ordered read from
// cursors on both sides of the chunk boundary: FramesSince ships exactly
// the contiguous run from each cursor and answers the cursor at the gap
// with ErrHorizon, WriteSnapshotTo ships every record and seeds a store
// that holds them all, Export and Replay feed every record in sequence
// order.
func TestGappedLogAcrossChunks(t *testing.T) {
	const n, gap = logChunk + 40, logChunk + 1
	rng := rand.New(rand.NewSource(7))
	s := NewStore()
	marks := []EpochMark{{Epoch: 1, Start: 20}}
	if err := s.InstallMarks(marks); err != nil {
		t.Fatal(err)
	}
	var fbs []core.Feedback
	var want []Frame // every record but the gap's, in sequence order
	for seq := uint64(1); seq <= n; seq++ {
		if seq == gap {
			continue
		}
		fb := randFeedback(rng, int(seq))
		fbs = append(fbs, fb)
		want = append(want, Frame{Epoch: epochAt(marks, seq), Seq: seq, Payload: marshalT(t, fb)})
		s.log.add(record{seq: seq, fb: fb})
	}
	s.seq.Store(n)
	if v := s.log.view(); len(v.chunks) != 2 || v.chunks[0][logChunk-1].seq != gap-1 || v.chunks[1][0].seq != gap+1 {
		t.Fatal("the gap does not fall between the first two chunks: the test checks nothing")
	}

	cursors := []uint64{0, 1, 2}
	for after := uint64(logChunk - 12); after <= n; after++ {
		cursors = append(cursors, after)
	}
	for _, after := range cursors {
		// The run from the cursor ends before the gap, or at n past it.
		end := uint64(n)
		if after < gap {
			end = gap - 1
		}
		for _, max := range []int{0, 1, 7, 512} {
			limit := uint64(max)
			if max == 0 {
				limit = 512
			}
			var exp []Frame
			for _, f := range want {
				if f.Seq > after && f.Seq <= min(end, after+limit) {
					exp = append(exp, f)
				}
			}
			got, err := s.FramesSince(after, max)
			if after == gap-1 {
				// No frame can extend a log that ends before the gap.
				if !errors.Is(err, ErrHorizon) || got != nil {
					t.Fatalf("FramesSince(%d, %d) at the gap shipped %d frames (err %v), want ErrHorizon", after, max, len(got), err)
				}
				continue
			}
			if err != nil || !sameFrames(got, exp) {
				t.Fatalf("FramesSince(%d, %d) shipped %d frames (err %v), want %d", after, max, len(got), err, len(exp))
			}
		}
	}

	var doc bytes.Buffer
	records, lastSeq, err := s.WriteSnapshotTo(&doc)
	if err != nil || records != n-1 || lastSeq != n {
		t.Fatalf("WriteSnapshotTo wrote %d records to seq %d (err %v), want %d to seq %d", records, lastSeq, err, n-1, n)
	}
	seeded := NewStore()
	if err := seeded.InstallMarks(marks); err != nil {
		t.Fatal(err)
	}
	if _, err := seeded.SeedFromSnapshot(doc.Bytes()); err != nil {
		t.Fatal(err)
	}
	before, err := seeded.FramesSince(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	past, err := seeded.FramesSince(gap, 1<<20)
	if err != nil || !sameFrames(append(before, past...), want) || seeded.LastSeq() != n {
		t.Fatalf("the document seeds %d+%d frames to seq %d (err %v), want %d to seq %d",
			len(before), len(past), seeded.LastSeq(), err, len(want), n)
	}

	var export bytes.Buffer
	enc := json.NewEncoder(&export)
	for _, fb := range fbs {
		if err := enc.Encode(toRecord(fb)); err != nil {
			t.Fatal(err)
		}
	}
	if got := exportOf(t, s); !bytes.Equal(got, export.Bytes()) {
		t.Fatal("Export is not in sequence order")
	}
	if got := replayed(t, s); !reflect.DeepEqual(got, fbs) {
		t.Fatal("Replay is not in sequence order")
	}
}

func TestApplyReplicatedContiguityAndFencing(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, WALOptions{})
	if _, err := s.ApplyReplicated([]Frame{frameFor(t, 0, 1, 0), frameFor(t, 0, 2, 1)}); err != nil {
		t.Fatal(err)
	}
	if s.LastSeq() != 2 || s.Len() != 2 {
		t.Fatalf("applied to seq %d len %d, want 2/2", s.LastSeq(), s.Len())
	}
	// Gap within the batch.
	if _, err := s.ApplyReplicated([]Frame{frameFor(t, 0, 3, 2), frameFor(t, 0, 5, 3)}); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("in-batch gap gave %v, want ErrSeqGap", err)
	}
	// Gap against the store.
	if _, err := s.ApplyReplicated([]Frame{frameFor(t, 0, 7, 2)}); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("cursor gap gave %v, want ErrSeqGap", err)
	}
	// Epoch mismatch: the store's mark history says seq 3 is epoch 0.
	if _, err := s.ApplyReplicated([]Frame{frameFor(t, 2, 3, 2)}); !errors.Is(err, ErrFenced) {
		t.Fatalf("wrong-epoch frame gave %v, want ErrFenced", err)
	}
	// After adopting a mark history, frames must carry the marked epoch.
	if err := s.InstallMarks([]EpochMark{{Epoch: 1, Start: 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyReplicated([]Frame{frameFor(t, 0, 3, 2)}); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale-epoch frame gave %v, want ErrFenced", err)
	}
	if _, err := s.ApplyReplicated([]Frame{frameFor(t, 1, 3, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Replicated frames are as durable as local submits, epochs included.
	re, rec := openT(t, dir, WALOptions{})
	if rec.Records() != 3 || re.LastSeq() != 3 {
		t.Fatalf("recovered %d records to seq %d, want 3/3", rec.Records(), re.LastSeq())
	}
	if got := re.EpochAt(3); got != 1 {
		t.Fatalf("recovered replicated frame at epoch %d, want 1", got)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotTransferRoundTrip(t *testing.T) {
	src := NewStore()
	for i := 0; i < 25; i++ {
		if err := src.Submit(richFeedback(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := src.Promote(); err != nil {
		t.Fatal(err)
	}
	for i := 25; i < 30; i++ {
		if err := src.Submit(richFeedback(i)); err != nil {
			t.Fatal(err)
		}
	}
	var doc bytes.Buffer
	records, lastSeq, err := src.WriteSnapshotTo(&doc)
	if err != nil {
		t.Fatal(err)
	}
	if records != 30 || lastSeq != 30 {
		t.Fatalf("transfer reports %d records to %d, want 30/30", records, lastSeq)
	}

	dir := t.TempDir()
	dst, _ := openT(t, dir, WALOptions{})
	n, err := dst.SeedFromSnapshot(doc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n != 30 || dst.LastSeq() != 30 {
		t.Fatalf("seeded %d records to seq %d, want 30/30", n, dst.LastSeq())
	}
	if !exportsEqual(t, src, dst) {
		t.Fatal("seeded state diverged from source")
	}
	// Non-empty stores refuse a seed.
	if _, err := dst.SeedFromSnapshot(doc.Bytes()); err == nil {
		t.Fatal("seed into non-empty store accepted")
	}
	// A corrupt transfer is rejected before anything applies.
	if err := dst.ResetReplica(); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), doc.Bytes()...)
	bad[len(bad)/2] ^= 0x10
	if _, err := dst.SeedFromSnapshot(bad); err == nil {
		t.Fatal("corrupt transfer accepted")
	}
	if dst.Len() != 0 {
		t.Fatalf("corrupt transfer half-applied %d records", dst.Len())
	}
	// The good transfer still lands, and survives recovery (the seed
	// wrote the document as the local snapshot).
	if _, err := dst.SeedFromSnapshot(doc.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	re, rec := openT(t, dir, WALOptions{})
	if rec.Records() != 30 || re.LastSeq() != 30 {
		t.Fatalf("recovered seed: %d records to %d, want 30/30", rec.Records(), re.LastSeq())
	}
	if !exportsEqual(t, src, re) {
		t.Fatal("recovered seed diverged from source")
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestResetReplicaWipes(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, WALOptions{})
	submitN(t, s, 0, 10)
	if _, err := s.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := s.ResetReplica(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.LastSeq() != 0 || s.Epoch() != 0 || len(s.Marks()) != 0 {
		t.Fatalf("reset left len=%d seq=%d epoch=%d marks=%d", s.Len(), s.LastSeq(), s.Epoch(), len(s.Marks()))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, rec := openT(t, dir, WALOptions{})
	if rec.Records() != 0 || re.Epoch() != 0 {
		t.Fatalf("reset state not durable: %d records, epoch %d", rec.Records(), re.Epoch())
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotBitFlips flips every bit of a small s2 document in turn.
// The body checksum catches a flip in the body, and the header checks
// catch one in the header, so each flip is either reported corrupt or
// parses to the same frames and facts (an upper-case checksum digit reads
// as the same value).
func TestSnapshotBitFlips(t *testing.T) {
	src := NewStore()
	submitN(t, src, 0, 12)
	var buf bytes.Buffer
	if _, _, err := src.WriteSnapshotTo(&buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.Bytes()
	want, wantFacts, corrupt, err := parseSnapshotDoc(doc, "original")
	if err != nil || corrupt != nil {
		t.Fatalf("the unflipped document fails: %v %v", err, corrupt)
	}
	flipped := make([]byte, len(doc))
	same := 0
	for i := range doc {
		for bit := 0; bit < 8; bit++ {
			copy(flipped, doc)
			flipped[i] ^= 1 << bit
			frames, facts, corrupt, err := parseSnapshotDoc(flipped, "flipped")
			if err != nil {
				t.Fatal(err)
			}
			if corrupt != nil {
				continue
			}
			if facts != wantFacts || !reflect.DeepEqual(frames, want) {
				t.Errorf("flipping bit %d of byte %d (%q) parses as %d records to seq %d, not corrupt",
					bit, i, doc[i], facts.count, facts.lastSeq)
				continue
			}
			same++
		}
	}
	t.Logf("%d of %d flips parse to the same document", same, 8*len(doc))
}

// TestSnapshotCorruptFallsBackToWAL is the checksummed-snapshot
// contract: a snapshot that fails its header or body verification must
// not fail Open — recovery falls back to WAL-only replay and says so.
func TestSnapshotCorruptFallsBackToWAL(t *testing.T) {
	build := func(t *testing.T) string {
		dir := t.TempDir()
		s, _ := openT(t, dir, WALOptions{})
		submitN(t, s, 0, 40)
		if err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
		submitN(t, s, 40, 55) // 40 snapshotted, 15 in the WAL
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	corrupt := func(t *testing.T, dir string, mutate func([]byte) []byte) {
		t.Helper()
		path := filepath.Join(dir, snapshotName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"flipped body byte", func(b []byte) []byte {
			b[len(b)-3] ^= 0x08
			return b
		}},
		{"mangled header", func(b []byte) []byte {
			b[1] = 'X'
			return b
		}},
		{"truncated body", func(b []byte) []byte {
			return b[:len(b)-len(b)/4]
		}},
		// The body checksum does not cover the header's count and
		// lastSeq: one bit flipped in either must not pass as a shorter
		// snapshot, or as one covering WAL frames 41..50.
		{"count flipped to 00", func(b []byte) []byte {
			return bytes.Replace(b, []byte("s2 40 40 "), []byte("s2 00 40 "), 1)
		}},
		{"lastSeq flipped to 50", func(b []byte) []byte {
			return bytes.Replace(b, []byte("s2 40 40 "), []byte("s2 40 50 "), 1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := build(t)
			corrupt(t, dir, tc.mutate)
			s, rec := openT(t, dir, WALOptions{})
			defer func() {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}()
			if !rec.SnapshotCorrupt {
				t.Fatal("corruption not reported")
			}
			if rec.SnapshotWarning == "" {
				t.Fatal("no warning for the operator")
			}
			// WAL-only fallback: the 15 post-snapshot records survive,
			// and the count is honest.
			if s.Len() != 15 || rec.Records() != 15 {
				t.Fatalf("fallback recovered %d (reported %d), want 15", s.Len(), rec.Records())
			}
			// The log starts at seq 41: a cursor before it is past the
			// horizon, and cursor 40 ships the rest.
			if _, err := s.FramesSince(0, 0); !errors.Is(err, ErrHorizon) {
				t.Fatalf("FramesSince(0) gave %v, want ErrHorizon", err)
			}
			frames, err := s.FramesSince(40, 0)
			if err != nil || len(frames) != 15 || frames[0].Seq != 41 || frames[14].Seq != 55 {
				t.Fatalf("FramesSince(40) shipped %d frames (err %v), want seqs 41..55", len(frames), err)
			}
		})
	}
}
