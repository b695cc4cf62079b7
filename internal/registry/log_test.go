package registry

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"wstrust/internal/core"
)

// TestShardingPreservesSubmissionOrder: sequential submits must read back
// in exact submission order through every ordered read, whatever service
// each record rates — the determinism contract golden digests and wsxsim
// replays rely on. (The name predates the one ordered log.)
func TestShardingPreservesSubmissionOrder(t *testing.T) {
	st := NewStore()
	const n = 200
	for i := 0; i < n; i++ {
		if err := st.Submit(richFeedback(i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := st.Export(&buf); err != nil {
		t.Fatal(err)
	}
	// Export must replay the exact submission sequence.
	re := NewStore()
	if _, err := re.Import(&buf); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Store{st, re} {
		got := replayed(t, s)
		if len(got) != n {
			t.Fatalf("Replay fed %d records, want %d", len(got), n)
		}
		for i, fb := range got {
			if want := richFeedback(i); fb.Consumer != want.Consumer || !fb.At.Equal(want.At) {
				t.Fatalf("record %d is %s at %v, want %s at %v (submission order lost)",
					i, fb.Consumer, fb.At, want.Consumer, want.At)
			}
		}
	}
	if !exportsEqual(t, st, re) {
		t.Fatal("export/import round trip diverged")
	}
	// One consumer rating many services: every ordered read keeps
	// submission order.
	st2 := NewStore()
	for i := 0; i < 40; i++ {
		fb := richFeedback(i)
		fb.Consumer = "c-fixed"
		fb.Service = core.NewServiceID(i)
		if err := st2.Submit(fb); err != nil {
			t.Fatal(err)
		}
	}
	frames, err := st2.FramesSince(0, 0)
	if err != nil || len(frames) != 40 {
		t.Fatalf("FramesSince = %d frames, err %v", len(frames), err)
	}
	for i, fb := range replayed(t, st2) {
		if fb.Service != core.NewServiceID(i) {
			t.Fatalf("Replay[%d] = %s, want %s (submission order lost)", i, fb.Service, core.NewServiceID(i))
		}
		if got, err := frames[i].Feedback(); err != nil || got.Service != fb.Service || frames[i].Seq != uint64(i+1) {
			t.Fatalf("frame %d = seq %d %s (err %v), want seq %d %s", i, frames[i].Seq, got.Service, err, i+1, fb.Service)
		}
	}
}

// TestDurableHammer drives concurrent Submit / reads / Snapshot / Sync on
// a WAL-backed store; run with -race. Afterwards the log must hold seqs
// 1..N in order, and the store must reopen to exactly the acknowledged
// records.
func TestDurableHammer(t *testing.T) {
	dir := t.TempDir()
	st, _ := openT(t, dir, WALOptions{SyncEvery: 8, SnapshotEvery: 0})
	var wg sync.WaitGroup
	var acked atomic.Int64
	const writers, perG = 8, 50
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				fb := richFeedback(w*perG + i)
				fb.Service = core.NewServiceID(i % 13)
				if err := st.Submit(fb); err != nil {
					t.Error(err)
					return
				}
				acked.Add(1)
			}
		}()
	}
	wg.Add(1)
	go func() { // reader mixing every ordered read into the write storm
		defer wg.Done()
		for i := 0; i < 200; i++ {
			frames, err := st.FramesSince(uint64(i), 7)
			if err != nil && !errors.Is(err, ErrHorizon) {
				t.Error(err)
			}
			for k, f := range frames {
				if f.Seq != uint64(i+k+1) {
					t.Errorf("FramesSince(%d)[%d] has seq %d", i, k, f.Seq)
				}
			}
			if i%50 == 0 {
				var buf bytes.Buffer
				if err := st.Export(&buf); err != nil {
					t.Error(err)
				}
				if _, _, err := st.WriteSnapshotTo(&buf); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	wg.Add(1)
	go func() { // compaction + sync racing the writers
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if err := st.Snapshot(); err != nil {
				t.Error(err)
			}
			if err := st.Sync(); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	if got := int64(st.Len()); got != acked.Load() {
		t.Fatalf("Len = %d, acked = %d", got, acked.Load())
	}
	if seqs := sortedSeqs(t, st); seqs[len(seqs)-1] != uint64(acked.Load()) {
		t.Fatalf("log ends at seq %d, acked %d", seqs[len(seqs)-1], acked.Load())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, rec := openT(t, dir, WALOptions{})
	if int64(rec.Records()) != acked.Load() {
		t.Fatalf("recovered %d, acked %d", rec.Records(), acked.Load())
	}
	if !exportsEqual(t, st, re) {
		t.Fatal("recovered state diverged from closed store")
	}
}

// TestGroupCommitBatchesFsyncs: many concurrent submits on a SyncEvery:1
// store must complete with far fewer fsyncs than submits — the group
// commit amortization. We can't count fsyncs directly, but we can verify
// the ledger: every acknowledged record is on disk in seq order.
func TestGroupCommitBatchesFsyncs(t *testing.T) {
	dir := t.TempDir()
	st, _ := openT(t, dir, WALOptions{SyncEvery: 1})
	var wg sync.WaitGroup
	const writers, perG = 16, 25
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := st.Submit(richFeedback(w*perG + i)); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte{'\n'}), []byte{'\n'})
	if len(lines) != writers*perG {
		t.Fatalf("wal has %d frames, want %d", len(lines), writers*perG)
	}
	last := uint64(0)
	for i, line := range lines {
		_, seq, _, err := parseFrame(line)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if seq <= last {
			t.Fatalf("frame %d: seq %d not ascending after %d", i, seq, last)
		}
		last = seq
	}
}

// TestGroupCommitCrashImage simulates kill -9 mid-group-commit: while
// concurrent submitters hammer the WAL, the test copies the live file —
// exactly the bytes a crash would leave — into a fresh directory and
// recovers from it. The copy must always be a clean seq-ascending prefix
// (plus at most one torn frame), and every record acknowledged before the
// copy began must be in it.
func TestGroupCommitCrashImage(t *testing.T) {
	dir := t.TempDir()
	st, _ := openT(t, dir, WALOptions{SyncEvery: 4})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var acked atomic.Int64
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := st.Submit(richFeedback(w*10000 + i)); err != nil {
					t.Error(err)
					return
				}
				acked.Add(1)
			}
		}()
	}
	for img := 0; img < 5; img++ {
		// Durable floor: with SyncEvery 4, at most the 3 newest acked
		// records may still be in the unsynced window when we "crash".
		floor := acked.Load() - 3
		data, err := os.ReadFile(filepath.Join(dir, walName))
		if err != nil {
			t.Fatal(err)
		}
		crashDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(crashDir, walName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		re, rec := openT(t, crashDir, WALOptions{})
		if int64(rec.Records()) < floor {
			t.Fatalf("image %d: recovered %d records, durable floor %d", img, rec.Records(), floor)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALKillAndRecoverBatched extends the torn-tail recovery guarantee to
// batched group commits: submits land through concurrent committers, the
// file is severed mid-final-frame, and recovery must restore everything
// before the tear.
func TestWALKillAndRecoverBatched(t *testing.T) {
	dir := t.TempDir()
	st, _ := openT(t, dir, WALOptions{SyncEvery: 16})
	var wg sync.WaitGroup
	const n = 48
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := st.Submit(richFeedback(i)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1 + 7 // mid-final-frame
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	re, rec := openT(t, dir, WALOptions{})
	if !rec.Torn {
		t.Fatal("severed batched WAL not reported torn")
	}
	if rec.Records() != n-1 {
		t.Fatalf("recovered %d records, want %d", rec.Records(), n-1)
	}
	// The survivor must accept appends and recover cleanly once more.
	if err := re.Submit(richFeedback(n)); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec2 := openT(t, dir, WALOptions{})
	if rec2.Torn || rec2.Records() != n {
		t.Fatalf("second recovery: %+v", rec2)
	}
}

// TestFailedWALWriteLogsNothing: a group commit whose write fails leaves
// the log as it was. With the WAL's file swapped for a read-only handle,
// Submit, SubmitBatch and ApplyReplicated each fail with the WAL's sticky
// group-commit error, and Len, Export and FramesSince read what they read
// before.
func TestFailedWALWriteLogsNothing(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, WALOptions{})
	submitN(t, s, 0, 5)
	wantExport := exportOf(t, s)
	wantFrames, err := s.FramesSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := os.Open(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	s.state.Lock()
	rw := s.wal.f
	s.wal.f = ro
	s.state.Unlock()
	defer func() {
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}
	}()

	var sticky error
	check := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "wal group commit") {
			t.Fatalf("%s on an unwritable WAL gave %v, want the group-commit error", what, err)
		}
		if sticky == nil {
			sticky = err
		} else if err != sticky {
			t.Fatalf("%s gave %v, not the sticky %v", what, err, sticky)
		}
		if s.Len() != 5 || !bytes.Equal(exportOf(t, s), wantExport) {
			t.Fatalf("after a failed %s the log holds %d records, want the 5 written", what, s.Len())
		}
		if got, err := s.FramesSince(0, 0); err != nil || !sameFrames(got, wantFrames) {
			t.Fatalf("after a failed %s FramesSince shipped %d frames (err %v), want the 5 written", what, len(got), err)
		}
	}
	check("Submit", s.Submit(richFeedback(5)))
	check("SubmitBatch", s.SubmitBatch([]core.Feedback{richFeedback(6), richFeedback(7)}))
	_, err = s.ApplyReplicated([]Frame{frameFor(t, 0, s.LastSeq()+1, 8)})
	check("ApplyReplicated", err)
	if err := s.Close(); err == nil {
		t.Fatal("Close of a broken WAL reported no error")
	}
}
