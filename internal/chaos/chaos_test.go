package chaos

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"wstrust/internal/registry"
	"wstrust/internal/simclock"
)

// startT opens a node or fails the test.
func startT(t *testing.T, c *Cluster, name string) *Node {
	t.Helper()
	n, err := c.Start(name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Stop() })
	return n
}

// submitRange acks records [from, to) on n, failing the test on any
// rejection.
func submitRange(t *testing.T, n *Node, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := n.Submit(Feedback(i)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
}

// assertHolds fails unless every record in [from, to) is present on the
// store.
func assertHolds(t *testing.T, n *Node, from, to int, label string) {
	t.Helper()
	for i := from; i < to; i++ {
		if !Holds(n.Store, i) {
			t.Fatalf("%s: %s lost record %d", label, n.Name, i)
		}
	}
}

// TestChaosKillPrimaryPromoteRejoin is the headline scenario the
// replication contract promises to survive: kill -9 the primary
// mid-group-commit while two followers tail it, promote the
// most-caught-up follower under a fencing epoch, re-point the other
// follower, take new writes, then restart the dead primary from its
// crash image and rejoin it behind the fence. Every record replicated
// before the crash must survive on the majority; every record the dead
// primary acked must be in its crash image; the three survivors must
// converge to byte-identical exports. Deterministic under the fixed
// seed.
func TestChaosKillPrimaryPromoteRejoin(t *testing.T) {
	c := NewCluster(t.TempDir(), 42)
	a := startT(t, c, "a")
	b := startT(t, c, "b")
	d := startT(t, c, "d")
	if err := b.Follow(a.URL(), 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Follow(a.URL(), 2); err != nil {
		t.Fatal(err)
	}

	// Phase 1: a replicated baseline both followers hold in full.
	submitRange(t, a, 0, 200)
	if err := WaitCaughtUp(a.Store.LastSeq(), b, d); err != nil {
		t.Fatal(err)
	}

	// Phase 2: hammer the primary from concurrent writers and kill it
	// mid-flight. Submits that error after the kill were never acked and
	// carry no guarantee; everything recorded in acked was.
	var mu sync.Mutex
	acked := make(map[int]bool)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
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
				idx := 200 + w*100000 + i
				if err := a.Submit(Feedback(idx)); err != nil {
					return // killed under us: unacked, no guarantee
				}
				mu.Lock()
				acked[idx] = true
				mu.Unlock()
			}
		}()
	}
	for a.Store.LastSeq() < 260 {
		simclock.SleepWall(time.Millisecond)
	}
	// Freeze the survival obligation before the crash: everything acked
	// by this point must be in the image (the image is copied after this
	// moment, so it holds at least these). Acks that land while the
	// image is being copied are a race the contract doesn't cover.
	mu.Lock()
	ackedAtKill := make(map[int]bool, len(acked))
	for idx := range acked {
		ackedAtKill[idx] = true
	}
	mu.Unlock()
	img, err := c.Kill(a)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	// Promote the most-caught-up follower; the phase-1 baseline was on
	// both, so it must survive the promotion wholesale.
	newP, other := b, d
	if d.Store.LastSeq() > b.Store.LastSeq() {
		newP, other = d, b
	}
	epoch, err := newP.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("promoted to epoch %d, want 1", epoch)
	}
	assertHolds(t, newP, 0, 200, "post-promote")

	// The other follower re-points at the new primary and the cluster
	// takes new writes under the new epoch.
	other.StopFollow()
	if err := other.Follow(newP.URL(), 3); err != nil {
		t.Fatal(err)
	}
	submitRange(t, newP, 900000, 900050)

	// The dead primary's crash image must hold every submit it acked —
	// acked means fsynced at SyncEvery 1, and a crash loses nothing that
	// was fsynced.
	a2, err := c.StartAt("a2", img)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a2.Stop() })
	if a2.Rec.Records() != a2.Store.Len() {
		t.Fatalf("recovery overstates: reported %d, store holds %d", a2.Rec.Records(), a2.Store.Len())
	}
	assertHolds(t, a2, 0, 200, "crash image")
	for idx := range ackedAtKill {
		if !Holds(a2.Store, idx) {
			t.Fatalf("crash image lost acked record %d", idx)
		}
	}

	// Rejoin behind the fence: the old primary follows the new one,
	// discards its unreplicated suffix if the histories diverged, and
	// the three nodes converge to byte-identical exports.
	if err := a2.Follow(newP.URL(), 4); err != nil {
		t.Fatal(err)
	}
	digest, err := WaitConverged(newP, other, a2)
	if err != nil {
		t.Fatal(err)
	}
	if digest == "" {
		t.Fatal("empty convergence digest")
	}
	for _, n := range []*Node{newP, other, a2} {
		assertHolds(t, n, 0, 200, "converged baseline")
		assertHolds(t, n, 900000, 900050, "converged new-epoch writes")
		if got := n.Store.Epoch(); got != epoch {
			t.Fatalf("%s at epoch %d after convergence, want %d", n.Name, got, epoch)
		}
	}
}

// TestChaosPartitionPromoteFencesOldPrimary drives the split-brain
// edge: a follower is partitioned away and promoted while the old
// primary keeps acking writes on its side. The fencing epoch must cut
// both directions — the promoted node refuses to sync from the deposed
// primary (no wipe of its promoted state), the deposed primary's
// stream endpoint refuses a fenced cursor with 403 — and the deposed
// primary rejoining as a follower discards its divergent suffix.
func TestChaosPartitionPromoteFencesOldPrimary(t *testing.T) {
	c := NewCluster(t.TempDir(), 7)
	a := startT(t, c, "a")
	b := startT(t, c, "b")
	if err := b.Follow(a.URL(), 1); err != nil {
		t.Fatal(err)
	}
	submitRange(t, a, 0, 50)
	if err := WaitCaughtUp(a.Store.LastSeq(), b); err != nil {
		t.Fatal(err)
	}

	// Partition: b stops hearing from a; a keeps acking a divergent
	// suffix on its side.
	b.StopFollow()
	submitRange(t, a, 1000, 1030)

	epoch, err := b.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("promoted to epoch %d, want 1", epoch)
	}
	submitRange(t, b, 2000, 2010)
	lenAtPromote := b.Store.Len()

	// Direction 1: the deposed primary must refuse to feed a fenced
	// follower — 403 on the stream, no frames.
	resp, err := http.Get(a.URL() + "/wal/stream?from=0&fromEpoch=0&fence=1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("deposed primary served a fenced cursor: status %d, want 403", resp.StatusCode)
	}

	// Direction 2: the promoted node, even if misconfigured to follow
	// the deposed primary, must refuse to sync from the stale epoch —
	// its state stays intact.
	if err := b.Follow(a.URL(), 2); err != nil {
		t.Fatal(err)
	}
	simclock.SleepWall(100 * time.Millisecond)
	b.StopFollow()
	if got := b.Store.Epoch(); got != epoch {
		t.Fatalf("promoted node regressed to epoch %d", got)
	}
	if got := b.Store.Len(); got != lenAtPromote {
		t.Fatalf("promoted node's state changed under a stale source: %d records, want %d", got, lenAtPromote)
	}
	assertHolds(t, b, 2000, 2010, "stale-source refusal")

	// Rejoin: the deposed primary follows the promoted node, drops its
	// divergent suffix, and the pair converges byte-identically.
	if err := a.Follow(b.URL(), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := WaitConverged(b, a); err != nil {
		t.Fatal(err)
	}
	assertHolds(t, a, 0, 50, "rejoined baseline")
	assertHolds(t, a, 2000, 2010, "rejoined new-epoch writes")
	for i := 1000; i < 1030; i++ {
		if Holds(a.Store, i) {
			t.Fatalf("divergent suffix record %d survived the fence", i)
		}
	}
	if got := a.Store.Epoch(); got != epoch {
		t.Fatalf("rejoined node at epoch %d, want %d", got, epoch)
	}
}

// TestChaosPrimaryRestartsOnRottedSnapshot: a follower is partitioned
// off while the primary keeps writing and compacts past it; the primary
// is then killed, its snapshot body rots, and it restarts WAL-only, so
// its log starts past the follower's cursor. The follower rejoins: the
// source must send it to re-seed rather than open streams that end at
// once, and the two converge on the primary's export.
func TestChaosPrimaryRestartsOnRottedSnapshot(t *testing.T) {
	c := NewCluster(t.TempDir(), 23)
	p := startT(t, c, "p")
	f := startT(t, c, "f")
	if err := f.Follow(p.URL(), 1); err != nil {
		t.Fatal(err)
	}
	submitRange(t, p, 0, 40)
	if err := WaitCaughtUp(40, f); err != nil {
		t.Fatal(err)
	}
	if err := p.Store.Snapshot(); err != nil {
		t.Fatal(err)
	}

	// Partition: the follower stays at seq 40 while the primary writes
	// and compacts, so its WAL starts at seq 101.
	f.StopFollow()
	submitRange(t, p, 40, 100)
	if err := p.Store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	submitRange(t, p, 100, 130)

	img, err := c.Kill(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(img, SnapshotFile)
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap[len(snap)-3] ^= 0x08 // rot the body, not the header
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	p2, err := c.StartAt("p", img)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p2.Stop() })
	if !p2.Rec.SnapshotCorrupt || p2.Store.Len() != 30 {
		t.Fatalf("restarted primary holds %d records (%s), want the WAL's 30 from a corrupt snapshot", p2.Store.Len(), p2.Rec)
	}

	if err := f.Follow(p2.URL(), 2); err != nil {
		t.Fatal(err)
	}
	digest, err := WaitConverged(p2, f)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := ExportDigest(p2.Store); err != nil || digest != want {
		t.Fatalf("converged on %s, primary exports %s (%v)", digest, want, err)
	}
	assertHolds(t, f, 100, 130, "rejoined follower")
}

// TestChaosCorruptionRecoveryHonesty feeds seeded torn tails and bit
// flips to the WAL and snapshot of a stopped node and re-opens each
// mutilated image. Recovery must never panic, never invent records
// (everything recovered is a record that was acked), and never
// overstate (the reported count equals what the store actually holds).
// A corrupt snapshot must degrade to WAL-only replay with the warning
// set, not fail the open.
func TestChaosCorruptionRecoveryHonesty(t *testing.T) {
	c := NewCluster(t.TempDir(), 13)
	a := startT(t, c, "a")
	submitRange(t, a, 0, 120)
	if err := a.Store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	submitRange(t, a, 120, 180) // 120 in the snapshot, 60 in the WAL
	if err := a.Stop(); err != nil {
		t.Fatal(err)
	}

	const total = 180
	reopen := func(t *testing.T, dir string) (*registry.Store, registry.Recovery) {
		t.Helper()
		st, rec, err := registry.Open(dir, registry.WALOptions{})
		if err != nil {
			t.Fatalf("open corrupt image: %v", err)
		}
		t.Cleanup(func() { _ = st.Close() })
		// Honesty: reported == held, and everything held was acked.
		if rec.Records() != st.Len() {
			t.Fatalf("recovery overstates: reported %d, store holds %d", rec.Records(), st.Len())
		}
		held := 0
		for i := 0; i < total; i++ {
			if Holds(st, i) {
				held++
			}
		}
		if held != st.Len() {
			t.Fatalf("store holds %d records but only %d match acked submits", st.Len(), held)
		}
		return st, rec
	}

	for round := 0; round < 3; round++ {
		t.Run(fmt.Sprintf("torn-wal-%d", round), func(t *testing.T) {
			dir := copyImage(t, a.Dir)
			if _, err := c.TornTail(filepath.Join(dir, WALFile), 300); err != nil {
				t.Fatal(err)
			}
			st, _ := reopen(t, dir)
			if st.Len() < 120 {
				t.Fatalf("torn WAL tail lost snapshotted records: %d < 120", st.Len())
			}
		})
		t.Run(fmt.Sprintf("bitflip-wal-%d", round), func(t *testing.T) {
			dir := copyImage(t, a.Dir)
			if _, err := c.FlipBit(filepath.Join(dir, WALFile)); err != nil {
				t.Fatal(err)
			}
			st, _ := reopen(t, dir)
			if st.Len() < 120 {
				t.Fatalf("WAL bit flip lost snapshotted records: %d < 120", st.Len())
			}
		})
		t.Run(fmt.Sprintf("bitflip-snapshot-%d", round), func(t *testing.T) {
			dir := copyImage(t, a.Dir)
			if _, err := c.FlipBit(filepath.Join(dir, SnapshotFile)); err != nil {
				t.Fatal(err)
			}
			st, rec := reopen(t, dir)
			if !rec.SnapshotCorrupt {
				t.Fatal("bit-flipped snapshot not reported corrupt")
			}
			// WAL-only fallback: the post-compaction suffix survives.
			if st.Len() != 60 {
				t.Fatalf("WAL-only fallback holds %d records, want 60", st.Len())
			}
		})
	}
}

// copyImage clones a node's durable files into a fresh directory for
// mutilation.
func copyImage(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for _, name := range []string{WALFile, SnapshotFile, EpochFile} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}
