package registry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"iter"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"wstrust/internal/core"
	"wstrust/internal/qos"
	"wstrust/internal/simclock"
)

// randFeedback is a record with a random shape: optional provider and
// context, a varying set of facet ratings and observed metrics, so the
// JSON payloads differ in length and map keys.
func randFeedback(rng *rand.Rand, i int) core.Feedback {
	fb := core.Feedback{
		Consumer: core.NewConsumerID(rng.Intn(40)),
		Service:  core.NewServiceID(rng.Intn(12)),
		Ratings:  map[core.Facet]float64{core.FacetOverall: float64(rng.Intn(1001)) / 1000},
		At:       simclock.Epoch.Add(time.Duration(i) * time.Second),
	}
	switch r := rng.Intn(40); {
	case r == 0:
		// A frame longer than compaction's read buffer.
		fb.Context = core.Context(strings.Repeat("x", copyBufSize+rng.Intn(4096)))
	case r < 20:
		fb.Provider = core.NewProviderID(rng.Intn(5))
		fb.Context = "travel"
	}
	if rng.Intn(3) == 0 {
		fb.Ratings[qos.Accuracy] = rng.Float64()
	}
	if rng.Intn(3) == 0 {
		fb.Observed = qos.Observation{
			Values:  qos.Vector{qos.ResponseTime: rng.Float64() * 500, qos.Availability: rng.Float64()},
			Success: rng.Intn(4) != 0,
		}
	}
	return fb
}

// compactsFromMemory compacts s with one record poisoned in memory only —
// a NaN rating, which encoding/json refuses — and reports whether the
// memory path ran: it re-encodes every record and fails on that one,
// while the concatenating path never reads memory and succeeds. The
// record is restored afterwards; a failed memory path leaves the files as
// they were.
func compactsFromMemory(t *testing.T, s *Store) bool {
	t.Helper()
	v := s.log.view()
	if v.n == 0 {
		t.Fatal("no record to poison: an empty store compacts alike on both paths")
	}
	r := v.at(0)
	orig := r.fb
	r.fb.Ratings = map[core.Facet]float64{core.FacetOverall: math.NaN()}
	err := s.Snapshot()
	r.fb = orig
	var bad *json.UnsupportedValueError
	if err != nil && !errors.As(err, &bad) {
		t.Fatal(err)
	}
	return err != nil
}

// seqRecords yields recs with their sequence numbers, in slice order.
func seqRecords(recs []record) iter.Seq2[uint64, core.Feedback] {
	return func(yield func(uint64, core.Feedback) bool) {
		for _, r := range recs {
			if !yield(r.seq, r.fb) {
				return
			}
		}
	}
}

// memoryDoc is the snapshot the memory path writes for the store as it is.
func memoryDoc(t *testing.T, s *Store) []byte {
	t.Helper()
	doc, _, err := buildSnapshotDoc(seqRecords(sortedRecords(t, s)), s.LastSeq(), s.Marks())
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// exportOf is the store's full log as Export writes it.
func exportOf(t *testing.T, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Export(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeFileT(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// history drives a durable store through a random mix of writes,
// promotions, explicit snapshots and reopens. Every snapshot must take the
// concatenating path and write exactly the bytes the memory path would.
type history struct {
	t    *testing.T
	rng  *rand.Rand
	dir  string
	s    *Store
	next int // index of the next generated record
}

func (h *history) write() {
	t := h.t
	if h.rng.Intn(3) == 0 {
		batch := make([]core.Feedback, 1+h.rng.Intn(20))
		for i := range batch {
			batch[i] = randFeedback(h.rng, h.next)
			h.next++
		}
		if err := h.s.SubmitBatch(batch); err != nil {
			t.Fatal(err)
		}
		return
	}
	for n := 1 + h.rng.Intn(5); n > 0; n-- {
		if err := h.s.Submit(randFeedback(h.rng, h.next)); err != nil {
			t.Fatal(err)
		}
		h.next++
	}
}

// snapshot compacts and checks the result against the memory path.
func (h *history) snapshot() {
	t := h.t
	if compactsFromMemory(t, h.s) {
		t.Fatal("compaction re-encoded the store: it took the memory path")
	}
	got := readFileT(t, filepath.Join(h.dir, snapshotName))
	if want := memoryDoc(t, h.s); !bytes.Equal(got, want) {
		t.Fatalf("concatenated snapshot differs from the memory path:\n got %.200q\nwant %.200q", got, want)
	}
}

// reopen closes the store and recovers it from disk; the recovered log
// must equal the one it had.
func (h *history) reopen() {
	t := h.t
	want := exportOf(t, h.s)
	if err := h.s.Close(); err != nil {
		t.Fatal(err)
	}
	h.s, _ = openT(t, h.dir, WALOptions{})
	if got := exportOf(t, h.s); !bytes.Equal(got, want) {
		t.Fatal("reopened store differs from the closed one")
	}
}

// coverFrames re-creates the crash window between snapshot rename and WAL
// truncation: the snapshot's last frames are put back at the head of the
// WAL, then the store is reopened.
func (h *history) coverFrames() {
	t := h.t
	if err := h.s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(readFileT(t, filepath.Join(h.dir, snapshotName)), []byte{'\n'})
	frames := lines[1 : len(lines)-1]
	k := min(len(frames), 1+h.rng.Intn(4))
	walPath := filepath.Join(h.dir, walName)
	covered := bytes.Join(frames[len(frames)-k:], nil)
	writeFileT(t, walPath, append(covered, readFileT(t, walPath)...))
	var rec Recovery
	h.s, rec = openT(t, h.dir, WALOptions{})
	if rec.SkippedRecords != k {
		t.Fatalf("recovery skipped %d covered frames, want %d (%s)", rec.SkippedRecords, k, rec)
	}
}

// run plays steps random operations, ending with a snapshot and a reopen.
func (h *history) run(steps int) {
	for i := 0; i < steps; i++ {
		switch r := h.rng.Intn(20); {
		case r < 12:
			h.write()
		case r < 13:
			if _, err := h.s.Promote(); err != nil {
				h.t.Fatal(err)
			}
		case r < 17:
			h.write()
			h.snapshot()
		case r < 19:
			h.reopen()
		default:
			h.write()
			h.snapshot()
			h.coverFrames()
		}
	}
	h.write()
	h.snapshot()
	h.reopen()
	if err := h.s.Close(); err != nil {
		h.t.Fatal(err)
	}
}

// historyStarts builds a durable store in dir in every kind of starting
// state Open, SeedFromSnapshot and ResetReplica produce.
func historyStarts() map[string]func(t *testing.T, rng *rand.Rand, dir string) *Store {
	return map[string]func(t *testing.T, rng *rand.Rand, dir string) *Store{
		"fresh": func(t *testing.T, rng *rand.Rand, dir string) *Store {
			s, _ := openT(t, dir, WALOptions{})
			return s
		},
		"legacy-s1": func(t *testing.T, rng *rand.Rand, dir string) *Store {
			// A pre-checksum snapshot: "s1 <count> <lastSeq>" over the
			// same frames, with WAL frames behind it.
			recs := make([]record, 25)
			for i := range recs {
				recs[i] = record{seq: uint64(i + 1), fb: randFeedback(rng, 1000+i)}
			}
			doc, facts, err := buildSnapshotDoc(seqRecords(recs), 25, nil)
			if err != nil {
				t.Fatal(err)
			}
			writeFileT(t, filepath.Join(dir, snapshotName),
				append([]byte("s1 25 25\n"), doc[facts.bodyOff:]...))
			var wal []byte
			for i := 0; i < 7; i++ {
				payload, err := marshalRecord(randFeedback(rng, 2000+i))
				if err != nil {
					t.Fatal(err)
				}
				wal = appendFrame(wal, 0, uint64(26+i), crc32.ChecksumIEEE(payload), payload)
			}
			writeFileT(t, filepath.Join(dir, walName), wal)
			s, rec := openT(t, dir, WALOptions{})
			if rec.SnapshotRecords != 25 || rec.WALRecords != 7 {
				t.Fatalf("legacy recovery %s", rec)
			}
			return s
		},
		"corrupt-snapshot": func(t *testing.T, rng *rand.Rand, dir string) *Store {
			s, _ := openT(t, dir, WALOptions{})
			h := &history{t: t, rng: rng, dir: dir, s: s}
			h.write()
			h.snapshot()
			h.write()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, snapshotName)
			snap := readFileT(t, path)
			snap[len(snap)-5] ^= 0x20
			writeFileT(t, path, snap)
			s, rec := openT(t, dir, WALOptions{})
			if !rec.SnapshotCorrupt {
				t.Fatalf("flipped snapshot recovered cleanly: %s", rec)
			}
			return s
		},
		"seed": func(t *testing.T, rng *rand.Rand, dir string) *Store {
			primary := NewStore()
			for i := 0; i < 30; i++ {
				if err := primary.Submit(randFeedback(rng, 3000+i)); err != nil {
					t.Fatal(err)
				}
				if i == 11 {
					if _, err := primary.Promote(); err != nil {
						t.Fatal(err)
					}
				}
			}
			var doc bytes.Buffer
			if _, _, err := primary.WriteSnapshotTo(&doc); err != nil {
				t.Fatal(err)
			}
			s, _ := openT(t, dir, WALOptions{})
			if err := s.InstallMarks(primary.Marks()); err != nil {
				t.Fatal(err)
			}
			if _, err := s.SeedFromSnapshot(doc.Bytes()); err != nil {
				t.Fatal(err)
			}
			return s
		},
		"reset-replica": func(t *testing.T, rng *rand.Rand, dir string) *Store {
			s, _ := openT(t, dir, WALOptions{})
			h := &history{t: t, rng: rng, dir: dir, s: s, next: 4000}
			h.write()
			h.snapshot()
			h.write()
			if err := s.ResetReplica(); err != nil {
				t.Fatal(err)
			}
			// Refill through the replication path from a primary.
			primary := NewStore()
			for i := 0; i < 20; i++ {
				if err := primary.Submit(randFeedback(rng, 5000+i)); err != nil {
					t.Fatal(err)
				}
			}
			frames, err := primary.FramesSince(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.ApplyReplicated(frames); err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
}

// TestConcatSnapshotMatchesMemoryPath is the differential test of the two
// compaction paths: on random histories from every kind of starting state
// Open, SeedFromSnapshot and ResetReplica produce, the concatenated
// snapshot equals buildSnapshotDoc over the log byte for byte.
func TestConcatSnapshotMatchesMemoryPath(t *testing.T) {
	for name, start := range historyStarts() {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				dir := t.TempDir()
				h := &history{t: t, rng: rng, dir: dir, s: start(t, rng, dir), next: 10000}
				h.run(40)
			})
		}
	}
}

// reencodes compacts a store whose files cannot be extended and checks
// that the memory path ran and wrote exactly buildSnapshotDoc's bytes,
// and that the store reopens, clean, to what it held. It returns the
// reopened store.
func reencodes(t *testing.T, s *Store, dir string) *Store {
	t.Helper()
	if !compactsFromMemory(t, s) {
		t.Fatal("the files were extended instead of re-encoded from memory")
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got, want := readFileT(t, filepath.Join(dir, snapshotName)), memoryDoc(t, s); !bytes.Equal(got, want) {
		t.Fatalf("snapshot differs from the memory path:\n got %.300q\nwant %.300q", got, want)
	}
	want := exportOf(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, rec := openT(t, dir, WALOptions{})
	if rec.SnapshotCorrupt || rec.Torn || !bytes.Equal(exportOf(t, re), want) {
		t.Fatalf("reopened store differs from memory (%s)", rec)
	}
	return re
}

// TestCompactionHealsDamagedFiles: a bit flipped after Open in the old
// snapshot body, or in a live WAL frame — its payload, or the sequence
// number and epoch the frame CRC does not cover — fails verification, as
// does a WAL that lost its final frame; compaction falls back to the
// memory path and the reopened store equals memory.
func TestCompactionHealsDamagedFiles(t *testing.T) {
	// flip damages the middle frame of a file: the byte at(line), by bit.
	flip := func(at func(line []byte) int, bit byte) func([]byte) []byte {
		return func(data []byte) []byte {
			lines := bytes.SplitAfter(data, []byte{'\n'})
			mid := len(lines) / 2
			data[len(bytes.Join(lines[:mid], nil))+at(lines[mid])] ^= bit
			return data
		}
	}
	payload := func(line []byte) int { return len(line) - 4 }
	cases := []struct {
		name, file string
		damage     func([]byte) []byte
	}{
		{"snapshot-payload", snapshotName, flip(payload, 0x01)},
		{"wal-payload", walName, flip(payload, 0x01)},
		// "w2 1 <seq> ...": the last digit of seq, then the epoch.
		{"wal-seq", walName, flip(func(line []byte) int { return 5 + bytes.IndexByte(line[5:], ' ') - 1 }, 0x01)},
		{"wal-epoch", walName, flip(func(line []byte) int { return 3 }, 0x02)},
		// Every frame left is intact; only the totals disagree with memory.
		{"wal-lost-tail", walName, func(data []byte) []byte { return data[:len(data)-len(lastLine(data))-1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := openT(t, dir, WALOptions{})
			submitN(t, s, 0, 40)
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Promote(); err != nil {
				t.Fatal(err)
			}
			submitN(t, s, 40, 55)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s, _ = openT(t, dir, WALOptions{})
			submitN(t, s, 55, 56)
			// Damage the file behind the store's back.
			path := filepath.Join(dir, tc.file)
			writeFileT(t, path, tc.damage(readFileT(t, path)))
			re := reencodes(t, s, dir)
			if re.Len() != 56 {
				t.Fatalf("reopened %d records after healing, want 56", re.Len())
			}
			// Healed: the next compaction concatenates again.
			submitN(t, re, 56, 60)
			if compactsFromMemory(t, re) {
				t.Fatal("compaction after healing still took the memory path")
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOddSnapshotIsReencoded: a snapshot that verifies but is not what
// the memory path would write for its records — sequence numbers that do
// not end at its lastSeq, bytes past its records, frames whose epochs the
// installed marks contradict — is not extended; the next compaction
// re-encodes it, and the store reopens to what it held.
func TestOddSnapshotIsReencoded(t *testing.T) {
	frames := func(seqs ...uint64) []byte {
		var body []byte
		for _, seq := range seqs {
			payload, err := marshalRecord(richFeedback(int(seq)))
			if err != nil {
				t.Fatal(err)
			}
			body = appendFrame(body, 0, seq, crc32.ChecksumIEEE(payload), payload)
		}
		return body
	}
	s2 := func(count int, lastSeq uint64, body []byte) []byte {
		head := fmt.Sprintf("s2 %d %d %08x %d\n", count, lastSeq, crc32.ChecksumIEEE(body), len(body))
		return append([]byte(head), body...)
	}
	cases := map[string]func(t *testing.T, dir string) *Store{
		"lastSeq-past-records": func(t *testing.T, dir string) *Store {
			writeFileT(t, filepath.Join(dir, snapshotName), s2(3, 9, frames(1, 2, 3)))
			s, _ := openT(t, dir, WALOptions{})
			return s
		},
		"bytes-past-records": func(t *testing.T, dir string) *Store {
			writeFileT(t, filepath.Join(dir, snapshotName), s2(2, 2, frames(1, 2, 3)))
			s, _ := openT(t, dir, WALOptions{})
			return s
		},
		"epochs-contradict-marks": func(t *testing.T, dir string) *Store {
			var doc bytes.Buffer
			src := NewStore()
			submitN(t, src, 0, 6)
			if _, _, err := src.WriteSnapshotTo(&doc); err != nil {
				t.Fatal(err)
			}
			s, _ := openT(t, dir, WALOptions{})
			// Marks that put frames 4.. in epoch 1, which the seeded
			// epoch-0 frames contradict.
			if err := s.InstallMarks([]EpochMark{{Epoch: 1, Start: 4}}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.SeedFromSnapshot(doc.Bytes()); err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	for name, open := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir)
			submitN(t, s, 50, 52)
			if err := reencodes(t, s, dir).Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSnapshotAllocationFlat: the concatenating compaction streams through
// fixed buffers, so what one Snapshot allocates does not grow with the
// store — whether the records sit in the WAL or in the old body.
func TestSnapshotAllocationFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 32k-record store")
	}
	measure := func(n int) (allLive, bodyPlusLive uint64) {
		dir := t.TempDir()
		s, _ := openT(t, dir, WALOptions{SyncEvery: 1 << 30})
		batch := make([]core.Feedback, 0, 4096)
		for i := 0; i < n; i++ {
			batch = append(batch, richFeedback(i))
			if len(batch) == cap(batch) || i == n-1 {
				if err := s.SubmitBatch(batch); err != nil {
					t.Fatal(err)
				}
				batch = batch[:0]
			}
		}
		snapshotBytes := func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		allLive = snapshotBytes()
		submitN(t, s, n, n+256)
		bodyPlusLive = snapshotBytes()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return allLive, bodyPlusLive
	}
	smallLive, smallBody := measure(2 << 10)
	bigLive, bigBody := measure(32 << 10)
	t.Logf("bytes per Snapshot: all-live %d (2k) vs %d (32k); body+live %d (2k) vs %d (32k)",
		smallLive, bigLive, smallBody, bigBody)
	if bigLive >= 2*smallLive || bigBody >= 2*smallBody {
		t.Fatalf("Snapshot allocation grows with the store: all-live %d -> %d, body+live %d -> %d bytes",
			smallLive, bigLive, smallBody, bigBody)
	}
}

// TestAutoCompactionFailureKeepsWrite: a write that triggers a failing
// auto-compaction still succeeds — its record is durable and applied —
// while the failure reaches the OnCompactionError handler and the next
// threshold retries.
func TestAutoCompactionFailureKeepsWrite(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, WALOptions{SnapshotEvery: 2})
	var failures []error
	s.OnCompactionError(func(err error) { failures = append(failures, err) })
	// A directory where the temp snapshot goes makes every compaction fail.
	blocker := filepath.Join(dir, snapshotName+".tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	submitN(t, s, 0, 2)
	if len(failures) != 1 || !strings.Contains(failures[0].Error(), "auto-compaction") {
		t.Fatalf("compaction failures %v, want one auto-compaction error", failures)
	}
	if s.Len() != 2 {
		t.Fatalf("store holds %d records, want 2", s.Len())
	}
	// The retry waits for the next threshold, two frames on.
	if err := s.SubmitBatch([]core.Feedback{richFeedback(2)}); err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 {
		t.Fatalf("compaction retried before the next threshold: %v", failures)
	}
	if err := s.SubmitBatch([]core.Feedback{richFeedback(3)}); err != nil {
		t.Fatal(err)
	}
	if len(failures) != 2 {
		t.Fatalf("batch at the next threshold: %d failures, want 2", len(failures))
	}

	// A follower store fed the same frames fails the same way, and still
	// applies and returns every frame.
	fdir := t.TempDir()
	f, _ := openT(t, fdir, WALOptions{SnapshotEvery: 2})
	var ffailures []error
	f.OnCompactionError(func(err error) { ffailures = append(ffailures, err) })
	if err := os.Mkdir(filepath.Join(fdir, snapshotName+".tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	frames, err := s.FramesSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fbs, err := f.ApplyReplicated(frames)
	if err != nil || len(fbs) != 4 || f.Len() != 4 {
		t.Fatalf("ApplyReplicated = %d records, err %v; store holds %d", len(fbs), err, f.Len())
	}
	if len(ffailures) != 1 {
		t.Fatalf("follower compaction failures %v, want 1", ffailures)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Clear the fault: the next threshold compacts.
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	submitN(t, s, 4, 5)
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("compaction ran before the next threshold (stat: %v)", err)
	}
	submitN(t, s, 5, 6)
	if len(failures) != 2 {
		t.Fatalf("compaction failures %v after clearing the fault", failures)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, rec := openT(t, dir, WALOptions{})
	if re.Len() != 6 || rec.SnapshotRecords != 6 {
		t.Fatalf("reopened %d records (%s), want all 6 in the snapshot", re.Len(), rec)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestScanFrameMatchesAppendFrame: scanFrame takes exactly the frames
// appendFrame renders and rejects the variants ParseWire would also take
// but the memory path would never write.
func TestScanFrameMatchesAppendFrame(t *testing.T) {
	payload := []byte(`{"consumer":"c1","service":"s1","success":false,"at":"0001-01-01T00:00:00Z"}`)
	crc := crc32.ChecksumIEEE(payload)
	for _, tc := range []struct{ epoch, seq uint64 }{{0, 1}, {0, 90210}, {3, 7}, {1 << 40, 1<<63 + 5}} {
		line := appendFrame(nil, tc.epoch, tc.seq, crc, payload)
		epoch, seq, ok := scanFrame(line)
		if !ok || epoch != tc.epoch || seq != tc.seq {
			t.Fatalf("scanFrame(%q) = %d, %d, %v", line, epoch, seq, ok)
		}
	}
	good := string(appendFrame(nil, 2, 17, crc, payload))
	bads := []string{
		strings.Replace(good, "w2 2 17", "w2 02 17", 1),
		strings.Replace(good, "w2 2 17", "w2 2 017", 1),
		strings.Replace(good, "w2 2 17", "w2 0 17", 1),
		strings.Replace(good, "w2 2 17", "w3 2 17", 1),
		strings.Replace(good, "w2 2 17", "w2 2 +17", 1),
		strings.Replace(good, "w2 2 17", "w2 2 18446744073709551616", 1),
		strings.TrimSuffix(good, "\n"),
		strings.Replace(good, "c1", "c2", 1),
		"w1 5\n",
	}
	if upper := good[:8] + strings.ToUpper(good[8:16]) + good[16:]; upper != good {
		bads = append(bads, upper)
	}
	for _, bad := range bads {
		if _, _, ok := scanFrame([]byte(bad)); ok {
			t.Fatalf("scanFrame accepted %q", bad)
		}
	}
}

// TestConcurrentWritesAcrossCompactions: writers racing through
// auto-compactions — first failing ones, then concatenating ones — all
// succeed, the failures reach the handler, and the store reopens to
// exactly what it held, from a snapshot the memory path would also write.
func TestConcurrentWritesAcrossCompactions(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, WALOptions{SyncEvery: 4, SnapshotEvery: 7})
	var mu sync.Mutex
	failures := 0
	s.OnCompactionError(func(error) {
		mu.Lock()
		defer mu.Unlock()
		failures++
	})
	const writers, perWriter = 4, 40
	phase := func(base int) {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					n := base + (w*perWriter+i)*2
					var err error
					if i%3 == 0 {
						err = s.SubmitBatch([]core.Feedback{richFeedback(n), richFeedback(n + 1)})
					} else {
						err = s.Submit(richFeedback(n))
					}
					if err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
	blocker := filepath.Join(dir, snapshotName+".tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	phase(0)
	mu.Lock()
	failed := failures
	mu.Unlock()
	if failed == 0 {
		t.Fatal("no compaction failure reached the handler")
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	phase(100000)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got, want := readFileT(t, filepath.Join(dir, snapshotName)), memoryDoc(t, s); !bytes.Equal(got, want) {
		t.Fatal("snapshot after concurrent compactions differs from the memory path")
	}
	want := exportOf(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, _ := openT(t, dir, WALOptions{})
	defer func() {
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if total := 2 * writers * (perWriter + (perWriter+2)/3); re.Len() != total {
		t.Fatalf("reopened %d records, want %d", re.Len(), total)
	}
	if !bytes.Equal(exportOf(t, re), want) {
		t.Fatal("reopened store differs from the one closed")
	}
}
