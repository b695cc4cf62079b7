package replica

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wstrust/internal/core"
	"wstrust/internal/fault"
	"wstrust/internal/qos"
	"wstrust/internal/registry"
	"wstrust/internal/resilience"
	"wstrust/internal/simclock"
)

func fb(i int) core.Feedback {
	return core.Feedback{
		Consumer: core.ConsumerID(fmt.Sprintf("r%05d", i)),
		Service:  core.NewServiceID(i % 4),
		Provider: core.NewProviderID(i % 2),
		Context:  "replica-test",
		Observed: qos.Observation{
			Values:  qos.Vector{qos.ResponseTime: float64(100 + i)},
			Success: true,
			At:      simclock.Epoch.Add(time.Duration(i) * time.Minute),
		},
		Ratings: map[core.Facet]float64{core.FacetOverall: 0.5},
		At:      simclock.Epoch.Add(time.Duration(i) * time.Minute),
	}
}

func submitN(t *testing.T, s *registry.Store, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := s.Submit(fb(i)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
}

// newSource mounts a Source over a fresh in-memory store.
func newSource(t *testing.T, drain <-chan struct{}) (*registry.Store, *httptest.Server) {
	t.Helper()
	st := registry.NewStore()
	src := &Source{Store: st, Drain: drain}
	mux := http.NewServeMux()
	src.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return st, srv
}

// newFollower builds a Follower against primary with a virtual clock
// whose Sleep advances it — retries and breaker cooldowns elapse
// instantly and deterministically.
func newFollower(t *testing.T, primary string, st *registry.Store) (*Follower, *simclock.Virtual) {
	t.Helper()
	clock := simclock.NewVirtual()
	f, err := New(Config{
		Primary: primary,
		Store:   st,
		Policy:  fault.Policy{MaxAttempts: 4, Base: 10 * time.Millisecond, Cap: 100 * time.Millisecond, Multiplier: 2},
		Breaker: resilience.BreakerConfig{FailureThreshold: 3, Cooldown: 50 * time.Millisecond},
		Clock:   clock,
		Sleep:   func(d time.Duration) { clock.Advance(d) },
		Seed:    11,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, clock
}

func TestSourceStatusReportsPosition(t *testing.T) {
	st, srv := newSource(t, nil)
	submitN(t, st, 0, 12)
	if _, err := st.Promote(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/replica/status")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	var got Status
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 1 || got.LastSeq != 12 || got.Records != 12 || len(got.Marks) != 1 {
		t.Fatalf("status %+v, want epoch 1, seq 12, 12 records, 1 mark", got)
	}
	if resp.Header.Get("X-Replica-Epoch") != "1" || resp.Header.Get("X-Replica-Seq") != "12" {
		t.Fatalf("position headers %q/%q", resp.Header.Get("X-Replica-Epoch"), resp.Header.Get("X-Replica-Seq"))
	}
}

func TestStreamResumesFromAckedCursor(t *testing.T) {
	st, srv := newSource(t, nil)
	submitN(t, st, 0, 10)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/wal/stream?from=6&fromEpoch=0&fence=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	readFrame := func() registry.Frame {
		t.Helper()
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		fr, err := registry.ParseWire(line[:len(line)-1])
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	// Catch-up: frames 7..10 stream immediately.
	for want := uint64(7); want <= 10; want++ {
		if fr := readFrame(); fr.Seq != want {
			t.Fatalf("got seq %d, want %d", fr.Seq, want)
		}
	}
	// Long poll: a new commit wakes the stream.
	submitN(t, st, 10, 11)
	if fr := readFrame(); fr.Seq != 11 {
		t.Fatalf("long poll delivered seq %d, want 11", fr.Seq)
	}
}

func TestStreamRefusalStatuses(t *testing.T) {
	st, srv := newSource(t, nil)
	submitN(t, st, 0, 5)
	get := func(q string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + "/wal/stream?" + q)
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode
	}
	// Fenced follower: the source's epoch is behind the fence.
	if got := get("from=0&fromEpoch=0&fence=3"); got != http.StatusForbidden {
		t.Fatalf("fenced cursor got %d, want 403", got)
	}
	// Cursor beyond the source's horizon.
	if got := get("from=99&fromEpoch=0&fence=0"); got != http.StatusConflict {
		t.Fatalf("future cursor got %d, want 409", got)
	}
	// Cursor whose epoch disagrees with the mark history.
	if got := get("from=3&fromEpoch=2&fence=0"); got != http.StatusConflict {
		t.Fatalf("wrong-epoch cursor got %d, want 409", got)
	}
	if got := get("from=bogus"); got != http.StatusBadRequest {
		t.Fatalf("malformed cursor got %d, want 400", got)
	}
}

func TestDrainSeversStream(t *testing.T) {
	drain := make(chan struct{})
	st, srv := newSource(t, drain)
	submitN(t, st, 0, 3)
	resp, err := http.Get(srv.URL + "/wal/stream?from=0&fromEpoch=0&fence=0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	br := bufio.NewReader(resp.Body)
	for i := 0; i < 3; i++ {
		if _, err := br.ReadBytes('\n'); err != nil {
			t.Fatalf("catch-up frame %d: %v", i, err)
		}
	}
	// The stream is now parked in its long poll; drain must end it
	// cleanly (EOF), not hang it.
	close(drain)
	if _, err := br.ReadBytes('\n'); err == nil {
		t.Fatal("stream survived drain")
	}
}

func TestFollowerBootstrapsThenStreams(t *testing.T) {
	st, srv := newSource(t, nil)
	submitN(t, st, 0, 50)
	local := registry.NewStore()
	f, _ := newFollower(t, srv.URL, local)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx)
	}()
	waitSeq := func(want uint64) {
		t.Helper()
		for i := 0; i < 5000; i++ {
			if local.LastSeq() >= want {
				return
			}
			simclock.SleepWall(time.Millisecond)
		}
		t.Fatalf("follower stuck at seq %d, want %d", local.LastSeq(), want)
	}
	// Initial catch-up goes through the snapshot transfer (empty store,
	// non-empty primary), then the stream.
	waitSeq(50)
	if local.Len() != 50 {
		t.Fatalf("bootstrapped %d records, want 50", local.Len())
	}
	// Live tail.
	submitN(t, st, 50, 60)
	waitSeq(60)
	if lag, contacted := f.Lag(); lag != 0 || !contacted {
		t.Fatalf("lag %d contacted %v after catch-up", lag, contacted)
	}
	if !f.Streaming() {
		t.Fatal("follower not streaming while tailing")
	}
	cancel()
	<-done
}

func TestFollowerServesStaleWhenPrimaryDies(t *testing.T) {
	st, srv := newSource(t, nil)
	submitN(t, st, 0, 20)
	local := registry.NewStore()
	f, _ := newFollower(t, srv.URL, local)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx)
	}()
	// Wait for the stream too, not just the records: the bootstrap
	// delivers them before the stream connects, and a stream that
	// connects after the severing below would keep Close waiting forever.
	for i := 0; i < 5000 && (local.LastSeq() < 20 || !f.Streaming()); i++ {
		simclock.SleepWall(time.Millisecond)
	}
	// Primary dies: stop accepting, then sever live connections — Close
	// alone waits for the in-flight stream, which only ends on client
	// disconnect, and a follower that reconnected between the severing
	// and Close would open a stream Close waits on forever.
	if err := srv.Listener.Close(); err != nil {
		t.Fatal(err)
	}
	srv.CloseClientConnections()
	srv.Close()
	for i := 0; i < 5000 && f.Streaming(); i++ {
		simclock.SleepWall(time.Millisecond)
	}
	// Degraded, not dead: the local views still answer, the loop keeps
	// retrying through breaker and backoff without wiping anything.
	if local.Len() != 20 {
		t.Fatalf("stale reads lost records: %d, want 20", local.Len())
	}
	if f.Streaming() {
		t.Fatal("still reports streaming against a dead primary")
	}
	if _, contacted := f.Lag(); !contacted {
		t.Fatal("contacted flag lost after primary death")
	}
	cancel()
	<-done
}

func TestSyncOnceRefusesFencedSource(t *testing.T) {
	st, srv := newSource(t, nil)
	submitN(t, st, 0, 10)
	local := registry.NewStore()
	// The local store was promoted past the source's epoch: a deposed
	// primary must never feed it.
	if err := local.InstallMarks([]registry.EpochMark{{Epoch: 1, Start: 1}}); err != nil {
		t.Fatal(err)
	}
	f, _ := newFollower(t, srv.URL, local)
	err := f.syncOnce(context.Background())
	if !errors.Is(err, errFencedSource) {
		t.Fatalf("sync from deposed primary gave %v, want errFencedSource", err)
	}
	if local.Len() != 0 {
		t.Fatalf("fenced sync still applied %d records", local.Len())
	}
}

func TestSyncOnceReseedsDivergedLocal(t *testing.T) {
	st, srv := newSource(t, nil)
	submitN(t, st, 0, 30)
	local := registry.NewStore()
	// Divergent local history: more records than the primary has.
	submitN(t, local, 100, 140)
	f, _ := newFollower(t, srv.URL, local)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx)
	}()
	for i := 0; i < 5000; i++ {
		if local.Len() == 30 && local.LastSeq() == 30 {
			break
		}
		simclock.SleepWall(time.Millisecond)
	}
	cancel()
	<-done
	if local.Len() != 30 || local.LastSeq() != 30 {
		t.Fatalf("diverged follower at %d records seq %d, want 30/30", local.Len(), local.LastSeq())
	}
	// The divergent records are gone — replaced by the primary's log.
	var want, got strings.Builder
	if err := st.Export(&want); err != nil {
		t.Fatal(err)
	}
	if err := local.Export(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("re-seeded follower exports\n%.300s\nnot the primary's\n%.300s", got.String(), want.String())
	}
}

func TestFollowerCallbacks(t *testing.T) {
	st, srv := newSource(t, nil)
	submitN(t, st, 0, 8)
	local := registry.NewStore()
	clock := simclock.NewVirtual()
	applied := make(chan int, 64)
	reseeded := make(chan struct{}, 4)
	f, err := New(Config{
		Primary: srv.URL,
		Store:   local,
		Clock:   clock,
		Sleep:   func(d time.Duration) { clock.Advance(d) },
		OnApply: func(fbs []core.Feedback) { applied <- len(fbs) },
		OnReseed: func() {
			select {
			case reseeded <- struct{}{}:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx)
	}()
	select {
	case <-reseeded:
	case <-simclockTimeout(5 * time.Second):
		t.Fatal("bootstrap never reported through OnReseed")
	}
	submitN(t, st, 8, 11)
	total := 0
	for total < 3 {
		select {
		case n := <-applied:
			total += n
		case <-simclockTimeout(5 * time.Second):
			t.Fatalf("OnApply reported %d of 3 streamed records", total)
		}
	}
	cancel()
	<-done
}

// simclockTimeout is a wall-clock timeout channel for test waits.
func simclockTimeout(d time.Duration) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		simclock.SleepWall(d)
		close(ch)
	}()
	return ch
}

// TestSyncOnceSurfacesPrimaryErrors drives syncOnce against a fake
// primary to exercise the HTTP error paths a healthy Source never
// produces: non-200 status fetches with diagnostic bodies, a stream
// fenced at the transport level, and a cursor conflict that persists
// through the re-seed.
func TestSyncOnceSurfacesPrimaryErrors(t *testing.T) {
	t.Run("status error body", func(t *testing.T) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "registry draining", http.StatusServiceUnavailable)
		}))
		defer srv.Close()
		f, _ := newFollower(t, srv.URL, registry.NewStore())
		err := f.syncOnce(context.Background())
		if err == nil || !strings.Contains(err.Error(), "registry draining") {
			t.Fatalf("error lost the diagnostic body: %v", err)
		}
	})
	t.Run("stream fenced at transport", func(t *testing.T) {
		donor := registry.NewStore()
		submitN(t, donor, 0, 5)
		mux := http.NewServeMux()
		mux.HandleFunc("GET /replica/status", func(w http.ResponseWriter, r *http.Request) {
			writeStatus(t, w, donor)
		})
		mux.HandleFunc("GET /wal/stream", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "fenced", http.StatusForbidden)
		})
		srv := httptest.NewServer(mux)
		defer srv.Close()
		local := registry.NewStore()
		submitN(t, local, 0, 5)
		f, _ := newFollower(t, srv.URL, local)
		if err := f.syncOnce(context.Background()); !errors.Is(err, errFencedSource) {
			t.Fatalf("403 stream gave %v, want errFencedSource", err)
		}
	})
	t.Run("persistent cursor conflict", func(t *testing.T) {
		donor := registry.NewStore()
		submitN(t, donor, 0, 5)
		mux := http.NewServeMux()
		mux.HandleFunc("GET /replica/status", func(w http.ResponseWriter, r *http.Request) {
			writeStatus(t, w, donor)
		})
		mux.HandleFunc("GET /replica/snapshot", func(w http.ResponseWriter, r *http.Request) {
			if _, _, err := donor.WriteSnapshotTo(w); err != nil {
				t.Error(err)
			}
		})
		mux.HandleFunc("GET /wal/stream", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "cursor beyond horizon", http.StatusConflict)
		})
		srv := httptest.NewServer(mux)
		defer srv.Close()
		local := registry.NewStore()
		submitN(t, local, 0, 5)
		f, _ := newFollower(t, srv.URL, local)
		err := f.syncOnce(context.Background())
		// The 409 triggers one re-seed; a second 409 is surfaced, not
		// looped on.
		if !errors.Is(err, errDiverged) {
			t.Fatalf("persistent 409 gave %v, want errDiverged", err)
		}
		if local.Len() != 5 {
			t.Fatalf("re-seed left %d records, want the donor's 5", local.Len())
		}
	})
}

func writeStatus(t *testing.T, w http.ResponseWriter, st *registry.Store) {
	t.Helper()
	if err := json.NewEncoder(w).Encode(Status{
		Epoch:   st.Epoch(),
		LastSeq: st.LastSeq(),
		Records: st.Len(),
		Marks:   st.Marks(),
	}); err != nil {
		t.Error(err)
	}
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{Primary: "http://x"}); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := New(Config{Store: registry.NewStore()}); err == nil {
		t.Fatal("empty primary accepted")
	}
}
