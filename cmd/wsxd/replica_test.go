package main

import (
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"wstrust/internal/simclock"
)

// serveHTTP exposes a server over a real listener — the follower dials
// its primary over HTTP. Returns the base URL and a stop func; the
// listener address can be re-bound after stop to simulate a primary
// restart at a stable address.
func serveHTTP(t *testing.T, s *server, addr string) (string, func()) {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	for i := 0; i < 200; i++ { // a just-freed port can lag a beat
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		simclock.SleepWall(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.routes()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln)
	}()
	stop := func() {
		_ = hs.Close()
		<-done
	}
	t.Cleanup(stop)
	return "http://" + ln.Addr().String(), stop
}

// newFollowerServer boots a wsxd in follower role tailing primary, with
// the backoff sleeps advancing its virtual clock so retries are instant.
func newFollowerServer(t *testing.T, dir, primary string) (*server, *simclock.Virtual) {
	t.Helper()
	var clock *simclock.Virtual
	s, c := newTestServer(t, dir, func(cfg *serverConfig) {
		clock = cfg.Clock.(*simclock.Virtual)
		cfg.Follow = primary
		cfg.FollowSleep = func(d time.Duration) { clock.Advance(d) }
	})
	t.Cleanup(s.stopFollower)
	return s, c
}

func submitHTTP(t *testing.T, h http.Handler, i int) {
	t.Helper()
	body := fmt.Sprintf(`{"consumer":"c%03d","service":"s%d","provider":"p%d","context":"compute","rating":0.%d}`,
		i, i%4+1, i%2+1, i%9+1)
	if w := do(t, h, "POST", "/submit", body); w.Code != http.StatusOK {
		t.Fatalf("submit %d = %d: %s", i, w.Code, w.Body)
	}
}

// waitFollowerSeq waits until the follower has applied seqs 1..want. Its
// LastSeq covers a commit still in flight, so the wait also needs the
// records in the log (Len) before the caller reads them.
func waitFollowerSeq(t *testing.T, s *server, want uint64) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if s.store.LastSeq() >= want && s.store.Len() >= int(want) {
			return
		}
		simclock.SleepWall(time.Millisecond)
	}
	t.Fatalf("follower stuck at seq %d with %d records, want %d", s.store.LastSeq(), s.store.Len(), want)
}

func TestFollowerReplicatesServesReadsAndRefusesWrites(t *testing.T) {
	p, _ := newTestServer(t, t.TempDir(), nil)
	hp := p.routes()
	primaryURL, _ := serveHTTP(t, p, "")
	for i := 0; i < 20; i++ {
		submitHTTP(t, hp, i)
	}

	f, _ := newFollowerServer(t, t.TempDir(), primaryURL)
	hf := f.routes()
	waitFollowerSeq(t, f, 20)
	for i := 0; i < 10000 && !f.fol.Streaming(); i++ {
		simclock.SleepWall(time.Millisecond) // bootstrap done, stream opening
	}

	// Reads serve from the replicated store with the staleness bound
	// stamped on; a caught-up streaming follower reports zero lag.
	w := do(t, hf, "GET", "/rank?consumer=c001&n=4", "")
	if w.Code != http.StatusOK {
		t.Fatalf("follower rank = %d: %s", w.Code, w.Body)
	}
	if got := w.Header().Get("Replica-Lag"); got != "0" {
		t.Fatalf("Replica-Lag = %q, want 0", got)
	}
	if w.Header().Get("Replica-Stale") != "" {
		t.Fatalf("caught-up follower marked stale")
	}
	w = do(t, hf, "GET", "/compute-with-stats", "")
	if w.Code != http.StatusOK {
		t.Fatalf("follower compute = %d: %s", w.Code, w.Body)
	}
	if w.Header().Get("Replica-Lag") == "" {
		t.Fatal("compute-with-stats missing Replica-Lag on follower")
	}

	// The primary's responses carry no replica headers.
	if w := do(t, hp, "GET", "/rank?consumer=c001&n=4", ""); w.Header().Get("Replica-Lag") != "" {
		t.Fatal("primary response carries Replica-Lag")
	}

	// Writes bounce with a pointer at the primary.
	w = do(t, hf, "POST", "/submit", `{"consumer":"x","service":"s1","context":"compute","rating":0.5}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("follower submit = %d, want 503", w.Code)
	}
	if got := w.Header().Get("X-Replica-Primary"); got != primaryURL {
		t.Fatalf("X-Replica-Primary = %q, want %q", got, primaryURL)
	}

	// Readiness reports the role and replicated position.
	m := decode(t, do(t, hf, "GET", "/readyz", ""))
	if m["role"] != "follower" || m["records"].(float64) != 20 {
		t.Fatalf("follower readyz = %v", m)
	}
}

func TestPromoteFlipsFollowerToPrimary(t *testing.T) {
	p, _ := newTestServer(t, t.TempDir(), nil)
	hp := p.routes()
	primaryURL, _ := serveHTTP(t, p, "")
	for i := 0; i < 10; i++ {
		submitHTTP(t, hp, i)
	}
	f, _ := newFollowerServer(t, t.TempDir(), primaryURL)
	hf := f.routes()
	waitFollowerSeq(t, f, 10)

	w := do(t, hf, "POST", "/promote", "")
	if w.Code != http.StatusOK {
		t.Fatalf("promote = %d: %s", w.Code, w.Body)
	}
	m := decode(t, w)
	if m["promoted"] != true || m["epoch"].(float64) != 1 {
		t.Fatalf("promote response = %v, want promoted at epoch 1", m)
	}

	// Promotion is idempotent: the second call reports the standing role.
	m = decode(t, do(t, hf, "POST", "/promote", ""))
	if m["promoted"] != false {
		t.Fatalf("second promote = %v, want promoted=false", m)
	}

	// The promoted node takes writes and drops the replica headers.
	submitHTTP(t, hf, 99)
	if f.store.Len() != 11 {
		t.Fatalf("promoted node has %d records, want 11", f.store.Len())
	}
	w = do(t, hf, "GET", "/rank?consumer=c001&n=4", "")
	if w.Header().Get("Replica-Lag") != "" {
		t.Fatal("promoted node still stamps Replica-Lag")
	}
	m = decode(t, do(t, hf, "GET", "/readyz", ""))
	if m["role"] != "primary" || m["epoch"].(float64) != 1 {
		t.Fatalf("promoted readyz = %v", m)
	}

	// Promote on a node that booted primary is a no-op.
	m = decode(t, do(t, hp, "POST", "/promote", ""))
	if m["promoted"] != false {
		t.Fatalf("promote on primary = %v, want promoted=false", m)
	}
}

// TestDrainSeversStreamFollowerResumes is the satellite-4 scenario: the
// primary drains while a follower holds an open WAL stream. Drain must
// complete promptly (the stream lives outside the inflight guard and is
// severed by drainStream), the follower keeps every acked record, and
// when a primary comes back at the same address the follower resumes
// from its acked cursor — no records lost, the tail picked up.
func TestDrainSeversStreamFollowerResumes(t *testing.T) {
	dir := t.TempDir()
	p, _ := newTestServer(t, dir, nil)
	hp := p.routes()
	primaryURL, stop := serveHTTP(t, p, "")
	for i := 0; i < 50; i++ {
		submitHTTP(t, hp, i)
	}

	f, _ := newFollowerServer(t, t.TempDir(), primaryURL)
	waitFollowerSeq(t, f, 50)

	// Drain the primary while the follower's stream is parked in its
	// long poll. A drain that waited on the stream would deadlock here.
	start := time.Now()
	if w := do(t, hp, "POST", "/drain", ""); w.Code != http.StatusOK {
		t.Fatalf("drain = %d: %s", w.Code, w.Body)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("drain took %v with an open follower stream", elapsed)
	}
	select {
	case <-p.drained:
	default:
		t.Fatal("drain returned but the drained channel is open")
	}

	// Severed, not harmed: the follower still holds everything acked and
	// keeps serving reads.
	if f.store.Len() != 50 {
		t.Fatalf("follower lost records on primary drain: %d, want 50", f.store.Len())
	}
	seqAtSever := f.store.LastSeq()

	// Primary restarts at the same address over the same data dir
	// (drain's snapshot compacted the WAL, so this is a clean open) and
	// takes more writes.
	stop()
	addr := primaryURL[len("http://"):]
	if err := p.store.Close(); err != nil {
		t.Fatal(err)
	}
	p2, _ := newTestServer(t, dir, nil)
	hp2 := p2.routes()
	serveHTTP(t, p2, addr)
	for i := 50; i < 70; i++ {
		submitHTTP(t, hp2, i)
	}

	// The follower reconnects through its retry loop and resumes from
	// the acked cursor.
	waitFollowerSeq(t, f, 70)
	if f.store.LastSeq() < seqAtSever {
		t.Fatalf("follower moved backwards: %d < %d", f.store.LastSeq(), seqAtSever)
	}
	if f.store.Len() != 70 {
		t.Fatalf("follower has %d records after resume, want 70", f.store.Len())
	}
}
