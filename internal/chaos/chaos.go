// Package chaos is a deterministic crash/corruption harness for the
// replicated registry. It runs a small cluster of registry-backed nodes
// in one process — each node a real *registry.Store behind a real HTTP
// server mounting the replica endpoints, followers tailing primaries
// over actual sockets — and injects the failures the replication
// contract (DESIGN.md §10) promises to survive:
//
//   - kill -9 mid-group-commit, simulated the same way the registry's
//     own crash tests do it: the live WAL bytes are copied while
//     concurrent submitters are mid-flight, and the node restarts from
//     that byte image, never from the cleanly-closed directory;
//   - torn tails and seeded bit flips in WAL and snapshot files, driven
//     by a named deterministic RNG stream so a failing seed replays
//     exactly;
//   - partition, follower promotion under a new fencing epoch, and the
//     deposed primary rejoining as a fenced follower;
//   - a primary restarting WAL-only on a rotted snapshot while a
//     partitioned follower lags behind the start of its log.
//
// The harness is a library: scenarios live in the package tests and in
// make chaos-smoke. All time is simclock time (wall clock, sanctioned
// sleep) and all randomness comes from simclock streams, so a scenario
// is replayable from its seed alone.
package chaos

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"wstrust/internal/core"
	"wstrust/internal/fault"
	"wstrust/internal/qos"
	"wstrust/internal/registry"
	"wstrust/internal/replica"
	"wstrust/internal/resilience"
	"wstrust/internal/simclock"
)

// File names a node's durable state lives in — mirrored from the
// registry so corruption targets can be named without exporting them.
const (
	WALFile      = "wal.wsx"
	SnapshotFile = "snapshot.wsx"
	EpochFile    = "epoch.wsx"
)

// Cluster owns a set of nodes rooted in one directory and the seeded
// randomness that drives corruption decisions.
type Cluster struct {
	root   string
	seed   int64
	rng    *randStream
	crash  int // crash-image counter, so image dirs never collide
	SyncEv int // WAL SyncEvery for new nodes (default 1: acked ⇒ fsynced)
}

// randStream wraps the deterministic stream so corruption choices are a
// pure function of (seed, call order).
type randStream struct{ r interface{ Intn(int) int } }

// NewCluster roots a cluster at dir with all randomness derived from
// seed.
func NewCluster(dir string, seed int64) *Cluster {
	return &Cluster{
		root:   dir,
		seed:   seed,
		rng:    &randStream{r: simclock.Stream(seed, "chaos.corrupt")},
		SyncEv: 1,
	}
}

// Node is one member of the cluster: a durable store behind a live HTTP
// server serving the replication endpoints, optionally running a
// follower loop against another node.
type Node struct {
	Name  string
	Dir   string
	Store *registry.Store
	Rec   registry.Recovery

	srv   *httptest.Server
	drain chan struct{}

	fol       *replica.Follower
	folCancel context.CancelFunc
	folDone   chan struct{}

	dead bool
}

// Start opens a node named name on a fresh directory under the cluster
// root.
func (c *Cluster) Start(name string) (*Node, error) {
	return c.StartAt(name, filepath.Join(c.root, name))
}

// StartAt opens a node named name on an explicit directory — the restart
// path: pass a crash-image directory captured by Kill to boot the node
// from exactly the bytes the crash left behind.
func (c *Cluster) StartAt(name, dir string) (*Node, error) {
	st, rec, err := registry.Open(dir, registry.WALOptions{SyncEvery: c.SyncEv})
	if err != nil {
		return nil, fmt.Errorf("chaos: start %s: %w", name, err)
	}
	n := &Node{Name: name, Dir: dir, Store: st, Rec: rec, drain: make(chan struct{})}
	src := &replica.Source{Store: st, Drain: n.drain}
	mux := http.NewServeMux()
	src.Register(mux)
	n.srv = httptest.NewServer(mux)
	return n, nil
}

// URL is the node's base URL, the address followers point at.
func (n *Node) URL() string { return n.srv.URL }

// Submit writes one feedback through the node's durable path. An error
// means the record was NOT acked and carries no survival guarantee.
func (n *Node) Submit(fb core.Feedback) error { return n.Store.Submit(fb) }

// Follow starts a follower loop tailing primaryURL, tuned for the
// harness: millisecond backoff and a fast-cooldown breaker so scenarios
// converge quickly, with every delay still coming from the seeded
// schedule.
func (n *Node) Follow(primaryURL string, seed int64) error {
	if n.fol != nil {
		return errors.New("chaos: node already following")
	}
	fol, err := replica.New(replica.Config{
		Primary: primaryURL,
		Store:   n.Store,
		Policy:  fault.Policy{MaxAttempts: 6, Base: time.Millisecond, Cap: 20 * time.Millisecond, Multiplier: 2},
		Breaker: resilience.BreakerConfig{FailureThreshold: 8, Cooldown: 5 * time.Millisecond},
		Seed:    seed,
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		fol.Run(ctx)
	}()
	n.fol, n.folCancel, n.folDone = fol, cancel, done
	return nil
}

// StopFollow cancels the follower loop and waits for it to exit — the
// harness's partition primitive: the node keeps serving reads from what
// it has, but no more frames arrive.
func (n *Node) StopFollow() {
	if n.folCancel == nil {
		return
	}
	n.folCancel()
	<-n.folDone
	n.fol, n.folCancel, n.folDone = nil, nil, nil
}

// Lag reports the follower's staleness bound, or (0,false) when the
// node is not following.
func (n *Node) Lag() (uint64, bool) {
	if n.fol == nil {
		return 0, false
	}
	return n.fol.Lag()
}

// Promote fences the node into a new primary epoch: the follower loop
// (if any) stops first, then the durable mark history gains the new
// epoch. Returns the new epoch.
func (n *Node) Promote() (uint64, error) {
	n.StopFollow()
	return n.Store.Promote()
}

// Kill simulates kill -9: it captures the node's durable files as raw
// bytes — read live, mid-whatever-the-writers-are-doing, exactly the
// image a crash would leave — into a fresh directory, then tears the
// process-local node down. Restart the "machine" with StartAt(name,
// imageDir). The cleanly-closed original directory is never reused; the
// crash image is the only truth a restarted node sees.
func (c *Cluster) Kill(n *Node) (imageDir string, err error) {
	c.crash++
	imageDir = filepath.Join(c.root, fmt.Sprintf("%s-crash%d", n.Name, c.crash))
	if err := os.MkdirAll(imageDir, 0o755); err != nil {
		return "", err
	}
	// Image first, while writers are still in flight: this is the moment
	// of the crash. Files are copied WAL-last so the image never holds a
	// WAL suffix newer than its snapshot horizon.
	for _, name := range []string{EpochFile, SnapshotFile, WALFile} {
		data, rerr := os.ReadFile(filepath.Join(n.Dir, name))
		if rerr != nil {
			if os.IsNotExist(rerr) {
				continue // never written on this node: absent in the image too
			}
			return "", rerr
		}
		if werr := os.WriteFile(filepath.Join(imageDir, name), data, 0o644); werr != nil {
			return "", werr
		}
	}
	n.teardown()
	return imageDir, nil
}

// Stop shuts the node down cleanly (drain, close) without capturing a
// crash image — the graceful counterpart to Kill.
func (n *Node) Stop() error {
	wasDead := n.dead
	n.teardown()
	if wasDead {
		return errors.New("chaos: node already stopped")
	}
	return nil
}

// teardown severs streams, stops the follower, closes the listener and
// the store. After a Kill the store's own Close still runs — the
// process-local goroutines must exit — but its cleanly-flushed directory
// is abandoned in favor of the crash image.
func (n *Node) teardown() {
	if n.dead {
		return
	}
	n.dead = true
	n.StopFollow()
	close(n.drain)
	n.srv.Close()
	// Close errors after a simulated crash are expected noise; the crash
	// image was captured before this point.
	_ = n.Store.Close()
}

// FlipBit corrupts one seeded-random bit of the file at path — the
// bit-rot injection. Returns the flipped byte offset.
func (c *Cluster) FlipBit(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if len(data) == 0 {
		return 0, fmt.Errorf("chaos: %s is empty, nothing to flip", path)
	}
	off := c.rng.r.Intn(len(data))
	data[off] ^= 1 << uint(c.rng.r.Intn(8))
	return off, os.WriteFile(path, data, 0o644)
}

// TornTail truncates a seeded-random 1..maxCut bytes off the end of the
// file at path — the torn-write injection. Returns how many bytes were
// cut.
func (c *Cluster) TornTail(path string, maxCut int) (int, error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	if info.Size() == 0 {
		return 0, fmt.Errorf("chaos: %s is empty, nothing to tear", path)
	}
	cut := 1 + c.rng.r.Intn(maxCut)
	if int64(cut) > info.Size() {
		cut = int(info.Size())
	}
	return cut, os.Truncate(path, info.Size()-int64(cut))
}

// ExportDigest renders the store's canonical export and hashes it —
// "byte-identical registry export" is digest equality.
func ExportDigest(st *registry.Store) (string, error) {
	var buf bytes.Buffer
	if err := st.Export(&buf); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// WaitCaughtUp polls until every node's sequence reaches target, or the
// attempt budget runs out. Polling sleeps through the sanctioned wall
// sleep; the default budget is ~10s of millisecond polls.
func WaitCaughtUp(target uint64, nodes ...*Node) error {
	for attempt := 0; attempt < 10000; attempt++ {
		behind := ""
		for _, n := range nodes {
			if n.Store.LastSeq() < target {
				behind = fmt.Sprintf("%s at seq %d < %d", n.Name, n.Store.LastSeq(), target)
				break
			}
		}
		if behind == "" {
			return nil
		}
		if attempt == 9999 {
			return errors.New("chaos: catch-up budget exhausted: " + behind)
		}
		simclock.SleepWall(time.Millisecond)
	}
	return nil
}

// WaitConverged polls until every node holds the same export digest at
// the same sequence, and returns that digest. Convergence is the
// harness's end-state assertion: after any scenario, the survivors must
// agree byte for byte.
func WaitConverged(nodes ...*Node) (string, error) {
	var lastErr error
	for attempt := 0; attempt < 10000; attempt++ {
		digest, seq, ok := "", uint64(0), true
		for i, n := range nodes {
			d, err := ExportDigest(n.Store)
			if err != nil {
				return "", err
			}
			if i == 0 {
				digest, seq = d, n.Store.LastSeq()
				continue
			}
			if d != digest || n.Store.LastSeq() != seq {
				ok = false
				lastErr = fmt.Errorf("chaos: %s (seq %d) disagrees with %s (seq %d)",
					n.Name, n.Store.LastSeq(), nodes[0].Name, seq)
				break
			}
		}
		if ok {
			return digest, nil
		}
		simclock.SleepWall(time.Millisecond)
	}
	return "", fmt.Errorf("chaos: convergence budget exhausted: %w", lastErr)
}

// Feedback builds the i-th deterministic harness record. Each record
// carries a unique consumer, so "did acked submit i survive" is a
// content-addressable membership check on any store.
func Feedback(i int) core.Feedback {
	return core.Feedback{
		Consumer: core.ConsumerID(fmt.Sprintf("chaos-c%06d", i)),
		Service:  core.NewServiceID(i % 5),
		Provider: core.NewProviderID(i % 3),
		Context:  "chaos",
		Observed: qos.Observation{
			Values:  qos.Vector{qos.ResponseTime: 50 + float64(i%100)},
			Success: i%7 != 0,
			At:      simclock.Epoch.Add(time.Duration(i) * time.Second),
		},
		Ratings: map[core.Facet]float64{core.FacetOverall: float64(i%10) / 10},
		At:      simclock.Epoch.Add(time.Duration(i) * time.Second),
	}
}

// Holds reports whether the store contains the i-th harness record —
// the membership side of the acked-submit survival invariant. The
// record's consumer is unique, so its export line is found by that field.
func Holds(st *registry.Store, i int) bool {
	var buf bytes.Buffer
	if err := st.Export(&buf); err != nil {
		return false
	}
	return bytes.Contains(buf.Bytes(), fmt.Appendf(nil, `"consumer":"chaos-c%06d"`, i))
}
