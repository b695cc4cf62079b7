package registry

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"wstrust/internal/core"
)

// recorder is a mechanism that keeps what Replay feeds it, in order.
type recorder struct{ got []core.Feedback }

func (r *recorder) Name() string { return "recorder" }

func (r *recorder) Submit(fb core.Feedback) error {
	r.got = append(r.got, fb)
	return nil
}

func (r *recorder) Score(core.Query) (core.TrustValue, bool) { return core.TrustValue{}, false }

// replayed is what Replay feeds a mechanism from s.
func replayed(t *testing.T, s *Store) []core.Feedback {
	t.Helper()
	var r recorder
	n, err := s.Replay(&r)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(r.got) {
		t.Fatalf("Replay reported %d records, fed %d", n, len(r.got))
	}
	return r.got
}

// sortedRecords is the test-side reference for the store's ordered reads:
// every shard record, sorted by sequence number.
func sortedRecords(s *Store) []record {
	var all []record
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		all = append(all, sh.recs...)
		sh.mu.RUnlock()
	}
	slices.SortFunc(all, func(a, b record) int { return cmp.Compare(a.seq, b.seq) })
	return all
}

// sortedLog is the feedback of sortedRecords, and sortedSeqs their
// sequence numbers.
func sortedLog(s *Store) []core.Feedback {
	var log []core.Feedback
	for _, r := range sortedRecords(s) {
		log = append(log, r.fb)
	}
	return log
}

func sortedSeqs(s *Store) []uint64 {
	var seqs []uint64
	for _, r := range sortedRecords(s) {
		seqs = append(seqs, r.seq)
	}
	return seqs
}

// viewPath is the reference Open + Replay must match: every record sorted
// by sequence number and decoded by encoding/json.
func viewPath(t *testing.T, s *Store) []core.Feedback {
	t.Helper()
	log := sortedLog(s)
	out := make([]core.Feedback, len(log))
	for i, fb := range log {
		var err error
		if out[i], err = jsonDecode(marshalT(t, fb)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// bootMatchesViewPath reopens the store and checks that Open + Replay
// feeds a mechanism exactly the records, in exactly the order, the view
// path fed it before the reopen.
func bootMatchesViewPath(t *testing.T, h *history, reopen func()) {
	t.Helper()
	want := viewPath(t, h.s)
	reopen()
	got := replayed(t, h.s)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Open + Replay fed %d records, the view path %d; first difference at %d",
			len(got), len(want), firstDiff(got, want))
	}
	if log := sortedLog(h.s); !reflect.DeepEqual(got, log) {
		t.Fatal("Replay order differs from the reopened store's sequence order")
	}
}

func firstDiff(a, b []core.Feedback) int {
	for i := range min(len(a), len(b)) {
		if !reflect.DeepEqual(a[i], b[i]) {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestOpenReplayMatchesViewPath is the differential test of the boot
// path: on random histories from fresh, legacy-s1, corrupt-snapshot,
// seeded and reset-replica starts, each reopen — plain or over frames the
// snapshot covers — feeds a mechanism the same records in the same order
// as the view path with encoding/json did: every record sorted by
// sequence number and decoded by encoding/json.
func TestOpenReplayMatchesViewPath(t *testing.T) {
	for name, start := range historyStarts() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				dir := t.TempDir()
				h := &history{t: t, rng: rng, dir: dir, s: start(t, rng, dir), next: 10000}
				if got, want := replayed(t, h.s), sortedLog(h.s); !reflect.DeepEqual(got, want) {
					t.Fatal("Replay of the start state differs from its sequence order")
				}
				for i := 0; i < 12; i++ {
					h.write()
					switch rng.Intn(4) {
					case 0:
						h.snapshot()
					case 1:
						if _, err := h.s.Promote(); err != nil {
							t.Fatal(err)
						}
					}
					if rng.Intn(3) == 0 {
						h.snapshot()
						bootMatchesViewPath(t, h, h.coverFrames)
						continue
					}
					bootMatchesViewPath(t, h, func() {
						if err := h.s.Close(); err != nil {
							t.Fatal(err)
						}
						h.s, _ = openT(t, dir, WALOptions{})
					})
				}
				if err := h.s.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestReplayOrdersOutOfOrderSegments: a racing writer can leave a shard
// segment out of sequence order, its apply landing after a later
// sequence number's. Replay still feeds the records in sequence order.
func TestReplayOrdersOutOfOrderSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 300
	want := make([]core.Feedback, n)
	s := NewStore()
	for _, i := range rng.Perm(n) {
		fb := randFeedback(rng, i)
		want[i] = fb
		sh := &s.shards[shardFor(fb.Service)]
		sh.mu.Lock()
		sh.apply(uint64(i+1), fb)
		sh.mu.Unlock()
		s.count.Add(1)
	}
	s.seq.Store(n)
	sorted := 0
	for i := range s.shards {
		recs := s.shards[i].recs
		if slices.IsSortedFunc(recs, func(a, b record) int { return cmp.Compare(a.seq, b.seq) }) {
			sorted++
		}
	}
	if sorted == shardCount {
		t.Fatal("no shard segment is out of order: the test checks nothing")
	}
	got := replayed(t, s)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Replay fed records out of sequence order; first difference at %d", firstDiff(got, want))
	}
}

// TestReplayDuringSubmits: Replay reads the shard segments while writers
// append to them (run it under -race). No pass feeds more records than
// were written, and once the writers are done Replay feeds exactly the
// records in sequence order.
func TestReplayDuringSubmits(t *testing.T) {
	s := NewStore()
	const writers, each = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				fb := richFeedback(w*each + i)
				fb.Service = core.NewServiceID(i % 32)
				if err := s.Submit(fb); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for pass := 0; pass < 20; pass++ {
		if got := len(replayed(t, s)); got > writers*each {
			t.Fatalf("Replay fed %d records, more than were written", got)
		}
	}
	wg.Wait()
	if got, want := replayed(t, s), sortedLog(s); len(got) != writers*each || !reflect.DeepEqual(got, want) {
		t.Fatalf("after the writers, Replay fed %d records, not the %d held", len(got), len(want))
	}
}

// TestRecoverySkipsDuplicateFrame: a WAL holding a second copy of a frame
// recovers each sequence number once. Replay feeds the record once, and
// the next compaction writes the three records under their own sequence
// numbers.
func TestRecoverySkipsDuplicateFrame(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, WALOptions{})
	submitN(t, s, 0, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName)
	wal := readFileT(t, walPath)
	frames := bytes.SplitAfter(wal, []byte{'\n'})
	writeFileT(t, walPath, append(wal, frames[1]...))

	s, rec := openT(t, dir, WALOptions{})
	if s.Len() != 3 || s.LastSeq() != 3 || rec.WALRecords != 3 || rec.SkippedRecords != 1 {
		t.Fatalf("recovered %d records to seq %d (%s), want 3 to seq 3 with 1 skipped", s.Len(), s.LastSeq(), rec)
	}
	if got := replayed(t, s); len(got) != 3 {
		t.Fatalf("Replay fed %d records, want 3", len(got))
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got, want := readFileT(t, filepath.Join(dir, snapshotName)), memoryDoc(t, s); !bytes.Equal(got, want) {
		t.Fatalf("snapshot after a duplicated frame:\n got %q\nwant %q", got, want)
	}
	if seqs := sortedSeqs(s); !slices.Equal(seqs, []uint64{1, 2, 3}) {
		t.Fatalf("recovered seqs %v, want [1 2 3]", seqs)
	}
	want := exportOf(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, rec := openT(t, dir, WALOptions{})
	defer func() {
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if !slices.Equal(sortedSeqs(re), []uint64{1, 2, 3}) || !bytes.Equal(exportOf(t, re), want) || rec.SkippedRecords != 0 {
		t.Fatalf("reopened to seqs %v (%s)", sortedSeqs(re), rec)
	}
}
