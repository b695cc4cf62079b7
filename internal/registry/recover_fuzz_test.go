package registry

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// FuzzWALRecover throws arbitrary mutations of a valid WAL + snapshot +
// epoch-history directory at Open. The recovery contract under fire:
// Open never panics, and whatever it reports recovering is exactly what
// the store holds — corruption may cost records (torn tails are
// truncated, a bad snapshot falls back to WAL-only replay), but the
// count is never overstated, no sequence number is applied twice, and a
// mangled image never produces a wedged or lying store. Every recovered
// store then compacts, closes and reopens: whichever path the compaction
// takes, the reopened store holds exactly the records it had under the
// same sequence numbers, from a clean snapshot and WAL.
func FuzzWALRecover(f *testing.F) {
	// One canonical healthy image: records in the snapshot, records in
	// the WAL, an epoch promotion so w2 frames and a mark history are on
	// disk too.
	seedDir := f.TempDir()
	s, _, err := Open(seedDir, WALOptions{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := s.Submit(richFeedback(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Snapshot(); err != nil {
		f.Fatal(err)
	}
	if _, err := s.Promote(); err != nil {
		f.Fatal(err)
	}
	for i := 30; i < 45; i++ {
		if err := s.Submit(richFeedback(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(seedDir, name))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	wal, snap, epoch := read(walName), read(snapshotName), read(epochName)

	f.Add(wal, snap, epoch)
	f.Add(wal[:len(wal)/2], snap, epoch)
	f.Add(wal, snap[:len(snap)-7], epoch)
	f.Add([]byte{}, snap, []byte("e1 borked"))
	f.Add(append([]byte("w1 1 00000000 {}\n"), wal...), snap, epoch)
	// The legacy unchecksummed snapshot header over the same body.
	header, body, _ := bytes.Cut(snap, []byte{'\n'})
	fields := strings.Fields(string(header))
	f.Add(wal, append([]byte(fmt.Sprintf("s1 %s %s\n", fields[1], fields[2])), body...), epoch)
	// A header lastSeq past the body's records (no checksum covers it):
	// the WAL frames up to it count as covered, which leaves a gap in the
	// recovered seqs that compaction and reopening must keep.
	f.Add(wal, append([]byte(fmt.Sprintf("s1 %s 39\n", fields[1])), body...), epoch)
	// A crash between snapshot rename and WAL truncation: the WAL still
	// starts with frames the snapshot covers.
	frames := bytes.SplitAfter(body, []byte{'\n'})
	f.Add(append(bytes.Join(frames[len(frames)-4:], nil), wal...), snap, epoch)
	// A 3-record WAL (no snapshot) followed by a second copy of its second
	// frame: recovery must apply seq 2 once.
	dupDir := f.TempDir()
	d, _, err := Open(dupDir, WALOptions{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := d.Submit(richFeedback(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		f.Fatal(err)
	}
	dup, err := os.ReadFile(filepath.Join(dupDir, walName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(dup, bytes.SplitAfter(dup, []byte{'\n'})[1]...), []byte{}, []byte{})

	f.Fuzz(func(t *testing.T, wal, snap, epoch []byte) {
		dir := t.TempDir()
		for _, file := range []struct {
			name string
			data []byte
		}{{walName, wal}, {snapshotName, snap}, {epochName, epoch}} {
			if err := os.WriteFile(filepath.Join(dir, file.name), file.data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st, rec, err := Open(dir, WALOptions{})
		if err != nil {
			// A rejected image (unparseable epoch history, unreadable
			// frame mid-log) is a legitimate outcome; panicking or lying
			// is not.
			return
		}
		if rec.Records() != st.Len() {
			t.Fatalf("recovery overstates: reported %d records, store holds %d (%s)",
				rec.Records(), st.Len(), rec)
		}
		if st.Len() > 0 && st.LastSeq() == 0 {
			t.Fatalf("store holds %d records but reports sequence 0", st.Len())
		}
		sortedSeqs(t, st) // the recovered seqs strictly increase
		// The recovered store must remain writable: the WAL tail was
		// truncated to a clean frame boundary.
		if err := st.Submit(richFeedback(999)); err != nil {
			t.Fatalf("recovered store rejects writes: %v", err)
		}
		if err := st.Snapshot(); err != nil {
			t.Fatalf("recovered store fails to compact: %v", err)
		}
		seqs, records := sortedSeqs(t, st), exportOf(t, st)
		if err := st.Close(); err != nil {
			t.Fatalf("close recovered store: %v", err)
		}
		re, rec, err := Open(dir, WALOptions{})
		if err != nil {
			t.Fatalf("reopen after compaction: %v", err)
		}
		defer func() {
			if err := re.Close(); err != nil {
				t.Fatalf("close reopened store: %v", err)
			}
		}()
		if re.Len() != st.Len() || rec.SnapshotCorrupt || rec.Torn {
			t.Fatalf("compacted store of %d records reopened as %d (%s)", st.Len(), re.Len(), rec)
		}
		if got := sortedSeqs(t, re); !slices.Equal(got, seqs) || !bytes.Equal(exportOf(t, re), records) {
			t.Fatalf("compacted store reopened with other records or seqs: %v, want %v", got, seqs)
		}
	})
}
