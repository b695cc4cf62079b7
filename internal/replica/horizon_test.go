package replica

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"wstrust/internal/registry"
	"wstrust/internal/simclock"
)

// serveStore mounts a Source over st and counts the /wal/stream requests
// it answers.
func serveStore(t *testing.T, st *registry.Store) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	mux := http.NewServeMux()
	(&Source{Store: st}).Register(mux)
	var streams atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/wal/stream" {
			streams.Add(1)
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &streams
}

// exportBytes is the store's full log as Export writes it.
func exportBytes(t *testing.T, st *registry.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.Export(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// follow runs f until the local store exports the primary's bytes at the
// primary's sequence number, or stop reports true, or 5 s pass; it
// reports whether the two converged.
func follow(t *testing.T, f *Follower, primary, local *registry.Store, stop func() bool) bool {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()
	want := exportBytes(t, primary)
	for i := 0; i < 5000 && !stop(); i++ {
		if local.LastSeq() == primary.LastSeq() && bytes.Equal(exportBytes(t, local), want) {
			return true
		}
		simclock.SleepWall(time.Millisecond)
	}
	return false
}

// TestFollowerReseedsBelowPrimaryHorizon: a primary whose snapshot rotted
// reopens WAL-only, so its log starts at seq 41. A follower at seq 10 must
// be told to re-seed (409), not handed a stream that ends at once, and it
// catches up within a few stream requests.
func TestFollowerReseedsBelowPrimaryHorizon(t *testing.T) {
	dir := t.TempDir()
	st, _, err := registry.Open(dir, registry.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, st, 0, 40)
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	submitN(t, st, 40, 55) // 40 snapshotted, 15 in the WAL
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "snapshot.wsx")
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap[len(snap)-3] ^= 0x08 // rot the body
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	primary, rec, err := registry.Open(dir, registry.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := primary.Close(); err != nil {
			t.Error(err)
		}
	})
	if !rec.SnapshotCorrupt || primary.Len() != 15 {
		t.Fatalf("primary reopened with %d records (%s), want the WAL's 15 from a corrupt snapshot", primary.Len(), rec)
	}

	local := registry.NewStore()
	submitN(t, local, 0, 10) // the primary's first 10 records
	srv, streams := serveStore(t, primary)
	f, _ := newFollower(t, srv.URL, local)
	if !follow(t, f, primary, local, func() bool { return streams.Load() > 3 }) {
		t.Fatalf("follower at seq %d with %d records after %d stream requests, want the primary's %d to seq %d",
			local.LastSeq(), local.Len(), streams.Load(), primary.Len(), primary.LastSeq())
	}
	if n := streams.Load(); n > 3 {
		t.Fatalf("converged after %d stream requests, want at most 3", n)
	}
}

// TestFollowersConvergeAcrossSeqGap: a primary recovered from an image
// whose WAL skips seq 6 holds records 1..5 and 7..10. A fresh follower
// seeds all nine, and a follower at seq 3 streams to the gap, is told to
// re-seed there, and ends with the primary's log too.
func TestFollowersConvergeAcrossSeqGap(t *testing.T) {
	donor := registry.NewStore()
	submitN(t, donor, 0, 10)
	frames, err := donor.FramesSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wal []byte
	for _, fr := range frames {
		if fr.Seq != 6 {
			wal = fr.AppendWire(wal)
		}
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.wsx"), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	primary, _, err := registry.Open(dir, registry.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := primary.Close(); err != nil {
			t.Error(err)
		}
	})
	if primary.Len() != 9 || primary.LastSeq() != 10 {
		t.Fatalf("primary holds %d records to seq %d, want 9 to seq 10", primary.Len(), primary.LastSeq())
	}
	srv, _ := serveStore(t, primary)

	for name, lead := range map[string]int{"fresh": 0, "lagging": 3} {
		t.Run(name, func(t *testing.T) {
			local := registry.NewStore()
			submitN(t, local, 0, lead)
			f, _ := newFollower(t, srv.URL, local)
			if !follow(t, f, primary, local, func() bool { return false }) {
				t.Fatalf("follower stuck at seq %d with %d records, want the primary's 9 to seq 10", local.LastSeq(), local.Len())
			}
		})
	}
}
