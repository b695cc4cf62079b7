package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wstrust/internal/core"
	"wstrust/internal/qos"
	"wstrust/internal/registry"
	"wstrust/internal/replica"
	"wstrust/internal/resilience"
	"wstrust/internal/simclock"
	"wstrust/internal/trust/beta"
	"wstrust/internal/trust/eigentrust"
	"wstrust/internal/workload"
)

// Replica roles. A server boots primary (serving writes and replicating
// to any followers that connect) or follower (read-only, streaming the
// primary's WAL); POST /promote flips a follower to primary with a
// fencing epoch.
const (
	rolePrimary int32 = iota
	roleFollower
)

// server wires the WAL-backed registry store, a Beta reputation
// mechanism, and the selection engine behind an HTTP API, with the
// resilience layer in front of every data-path endpoint: a token-bucket
// shedder classes and admits requests, a bulkhead bounds concurrent rank
// computations, a circuit breaker guards durable submits, and each
// request runs under a deadline budget. The clock is injected: the
// daemon serves on simclock.Wall, tests drive a Virtual.
type server struct {
	clock    simclock.Clock
	store    *registry.Store
	prefs    qos.Preferences
	catalog  []core.Candidate
	category string
	mechName string
	seed     int64
	logf     func(format string, args ...any) // daemon log lines (tests capture them)

	// mechMu guards swaps of the mechanism pointer: a follower reseed
	// (snapshot bootstrap) rebuilds the mechanism from the replicated
	// store and replaces it wholesale. Handlers take the read side once
	// per request via getMech.
	mechMu sync.RWMutex
	mech   core.Mechanism // guarded by mechMu
	engine *core.Engine   // guarded by rankMu (only session building uses it)

	shedder  *resilience.Shedder
	bulkhead *resilience.Bulkhead
	breaker  *resilience.Breaker
	timeout  time.Duration

	// rankMu serializes engine access: the engine's exploration RNG and
	// the rank session's buffers are single-consumer state. /rank readers
	// do not queue on it — they serve the published snapshot and only the
	// one request winning TryLock recomputes (see handleRank).
	rankMu  sync.Mutex
	session *core.RankSession // guarded by rankMu

	// rankVer counts accepted submits; a rank snapshot stamped with an
	// older version is stale. rankSnap is the published copy-on-write
	// ranking (never mutated in place).
	rankVer  atomic.Uint64
	rankSnap atomic.Pointer[rankSnapshot]

	stateMu   sync.Mutex
	draining  bool // guarded by stateMu
	inflight  sync.WaitGroup
	drainOnce sync.Once
	drained   chan struct{}

	// Replication state. source serves /wal/stream, /replica/* to
	// followers of this node; drainStream severs open streams on drain
	// (they are long polls and deliberately not inflight-tracked). In
	// follower role fol tails the configured primary until /promote or
	// drain stops it.
	role        atomic.Int32 // rolePrimary or roleFollower
	source      *replica.Source
	drainStream chan struct{}
	follow      string // primary base URL; "" in primary role
	fol         *replica.Follower
	folMu       sync.Mutex         // guards folCancel/folDone
	folCancel   context.CancelFunc // guarded by folMu; nil once stopped
	folDone     chan struct{}      // guarded by folMu; closed when Run returns
}

// serverConfig parameterizes construction; zero fields get defaults.
type serverConfig struct {
	Store    *registry.Store
	Clock    simclock.Clock
	Seed     int64
	Services int
	Category string
	// Mech selects the reputation mechanism: "beta" (default) or
	// "eigentrust" (incremental, warm-started — the one that reports real
	// convergence stats on /compute-with-stats).
	Mech string

	ShedRate, ShedBurst float64
	Bulkhead            int
	Timeout             time.Duration
	Breaker             resilience.BreakerConfig

	// Follow, when set, boots the server in follower role: read-only,
	// tailing the primary at this base URL. FollowSleep overrides the
	// reconnect sleep (tests inject a fast one; default real sleep via
	// simclock.SleepWall).
	Follow      string
	FollowSleep func(time.Duration)
}

// newServer builds the serving stack: demo catalog, mechanism warmed by
// replaying the recovered store, engine, and the resilience primitives.
//
//lint:guarded newServer constructs the server; it is not shared until returned
func newServer(cfg serverConfig) (*server, error) {
	if cfg.Clock == nil {
		cfg.Clock = simclock.Wall()
	}
	if cfg.Services < 1 {
		cfg.Services = 16
	}
	if cfg.Category == "" {
		cfg.Category = "compute"
	}
	if cfg.ShedRate <= 0 {
		cfg.ShedRate = 200
	}
	if cfg.Bulkhead < 1 {
		cfg.Bulkhead = 8
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}

	specs := workload.GenerateServices(simclock.Stream(cfg.Seed, "services"),
		workload.ServiceOptions{N: cfg.Services, Category: cfg.Category})
	catalog := make([]core.Candidate, len(specs))
	for i, sp := range specs {
		catalog[i] = sp.Desc.Candidate()
	}

	mech, err := newMechanism(cfg.Mech)
	if err != nil {
		return nil, err
	}
	if _, err := cfg.Store.Replay(mech); err != nil {
		return nil, fmt.Errorf("wsxd: replay recovered feedback: %w", err)
	}

	s := &server{
		clock:    cfg.Clock,
		store:    cfg.Store,
		mech:     mech,
		engine:   core.NewEngine(mech, simclock.Stream(cfg.Seed, "wsxd.engine")),
		prefs:    workload.BasePreferences(),
		catalog:  catalog,
		category: cfg.Category,
		mechName: cfg.Mech,
		seed:     cfg.Seed,
		logf:     func(format string, args ...any) { fmt.Printf("wsxd: "+format+"\n", args...) },
		shedder: resilience.NewShedder(resilience.ShedderConfig{
			Rate: cfg.ShedRate, Burst: cfg.ShedBurst,
		}, cfg.Clock),
		bulkhead: resilience.NewBulkhead(cfg.Bulkhead),
		breaker: resilience.NewBreaker(cfg.Breaker, cfg.Clock,
			simclock.Stream(cfg.Seed, "wsxd.breaker")),
		timeout:     cfg.Timeout,
		drained:     make(chan struct{}),
		drainStream: make(chan struct{}),
		follow:      cfg.Follow,
	}
	s.session = s.engine.NewRankSession(s.catalog)
	s.rankSnap.Store(s.computeRankSnapshot("")) // never nil: /rank always has something to serve
	// A write that crosses the compaction threshold is answered on its
	// own result (its record is durable and applied); a failed
	// compaction is logged here and retried at the next threshold.
	s.store.OnCompactionError(func(err error) {
		s.logf("%v (the write was accepted; retrying at the next threshold)", err)
	})
	s.source = &replica.Source{Store: s.store, Drain: s.drainStream}
	if cfg.Follow != "" {
		s.role.Store(roleFollower)
		fol, err := replica.New(replica.Config{
			Primary:  cfg.Follow,
			Store:    s.store,
			Clock:    cfg.Clock,
			Sleep:    cfg.FollowSleep,
			Seed:     cfg.Seed,
			OnApply:  s.onReplicated,
			OnReseed: s.reseedMechanism,
			Logf:     s.logf,
		})
		if err != nil {
			return nil, fmt.Errorf("wsxd: follower: %w", err)
		}
		s.fol = fol
		s.startFollower()
	}
	return s, nil
}

// newMechanism builds the reputation mechanism by name: "beta" (default)
// or "eigentrust" (incremental, warm-started — the one that reports real
// convergence stats on /compute-with-stats).
func newMechanism(name string) (core.Mechanism, error) {
	switch name {
	case "", "beta":
		return beta.New(), nil
	case "eigentrust":
		// Incremental mode: submits accumulate sparse deltas and scoring
		// warm-starts from the previous fixpoint, so the steady /local-trust
		// → /compute-with-stats loop costs a handful of residual-bounded
		// iterations instead of a cold power iteration per refresh.
		return eigentrust.New(eigentrust.WithEpsilon(1e-9)), nil
	default:
		return nil, fmt.Errorf("wsxd: unknown mechanism %q (want beta or eigentrust)", name)
	}
}

// getMech reads the current mechanism pointer (swapped by reseedMechanism
// after a follower bootstrap).
func (s *server) getMech() core.Mechanism {
	s.mechMu.RLock()
	defer s.mechMu.RUnlock()
	return s.mech
}

// isFollower reports whether the server is in follower role.
func (s *server) isFollower() bool { return s.role.Load() == roleFollower }

// onReplicated feeds a batch of replicated records into the mechanism and
// marks the rank snapshot stale — the follower-side mirror of what
// handleSubmit does after a local write.
func (s *server) onReplicated(fbs []core.Feedback) {
	mech := s.getMech()
	for i := range fbs {
		if err := mech.Submit(fbs[i]); err != nil {
			// The store accepted the record (it is durable and replicated);
			// a mechanism rejection is surfaced but cannot be refused.
			fmt.Printf("wsxd: replicated record rejected by mechanism: %v\n", err)
		}
	}
	s.rankVer.Add(1)
}

// reseedMechanism rebuilds the mechanism, engine and rank session from
// the store after a snapshot bootstrap replaced the whole local state.
func (s *server) reseedMechanism() {
	mech, err := newMechanism(s.mechName)
	if err != nil {
		fmt.Printf("wsxd: reseed: %v\n", err)
		return
	}
	if _, err := s.store.Replay(mech); err != nil {
		fmt.Printf("wsxd: reseed replay: %v\n", err)
		return
	}
	s.mechMu.Lock()
	s.mech = mech
	s.mechMu.Unlock()
	s.rankMu.Lock()
	s.engine = core.NewEngine(mech, simclock.Stream(s.seed, "wsxd.engine"))
	s.session = s.engine.NewRankSession(s.catalog)
	s.rankMu.Unlock()
	s.rankVer.Add(1)
}

// startFollower launches the replication loop goroutine.
func (s *server) startFollower() {
	s.folMu.Lock()
	defer s.folMu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	s.folCancel = cancel
	done := make(chan struct{})
	s.folDone = done
	go func() {
		defer close(done)
		s.fol.Run(ctx)
	}()
}

// stopFollower cancels the replication loop and waits for it to finish —
// any in-flight batch apply completes durably first, so a later restart
// resumes from the acked cursor. Idempotent.
func (s *server) stopFollower() {
	s.folMu.Lock()
	cancel, done := s.folCancel, s.folDone
	s.folCancel = nil
	s.folMu.Unlock()
	if cancel == nil {
		return
	}
	cancel()
	<-done
}

// rankSnapshot is one published ranking, immutable after publish: entries
// is the full catalog ranked best-first, shared lock-free by every /rank
// handler through s.rankSnap; handlers slice it per request and must not
// mutate it (wsxlint's immutable analyzer enforces this).
type rankSnapshot struct {
	version uint64
	entries []rankEntry
}

// computeRankSnapshot ranks the catalog under rankMu and freezes the
// result (construction-time path; handlers go through freshRankSnapshot).
func (s *server) computeRankSnapshot(consumer core.ConsumerID) *rankSnapshot {
	s.rankMu.Lock()
	defer s.rankMu.Unlock()
	return s.buildRankSnapshotLocked(consumer)
}

// freshRankSnapshot returns the published ranking, recomputing it first
// when submits have landed since it was built. Only one request recomputes
// — the TryLock winner; every other concurrent request serves the current
// snapshot. The staleness is bounded (at most the one in-flight
// recomputation behind), which is what keeps /rank p99 flat while /submit
// runs at saturation. With no write load the version check always demands
// freshness, preserving sequential read-your-writes semantics.
//
//lint:hotpath every /rank request passes through here; the fast path is two atomic loads and must stay allocation-free.
func (s *server) freshRankSnapshot(consumer core.ConsumerID) *rankSnapshot {
	snap := s.rankSnap.Load()
	if snap.version == s.rankVer.Load() {
		return snap
	}
	if !s.rankMu.TryLock() {
		return s.rankSnap.Load() // bounded-stale: a recompute is in flight
	}
	defer s.rankMu.Unlock()
	ns := s.buildRankSnapshotLocked(consumer)
	s.rankSnap.Store(ns)
	return ns
}

// buildRankSnapshotLocked ranks and freezes. The version is read before
// ranking, so a submit landing mid-computation leaves the snapshot stamped
// stale and the next /rank recomputes.
//
// One global snapshot serves every consumer: the default Beta mechanism
// is unpersonalized (rating queries ignore the asking perspective), and
// Engine.Rank consumes no randomness, so the ranking is identical for all
// consumers. If wsxd ever enables a personalized mechanism, this cache
// must be keyed by consumer.
//
//lint:guarded buildRankSnapshotLocked runs with rankMu held by its callers
func (s *server) buildRankSnapshotLocked(consumer core.ConsumerID) *rankSnapshot {
	version := s.rankVer.Load()
	ranked := s.session.Rank(consumer, s.prefs)
	entries := make([]rankEntry, len(ranked))
	for i, rk := range ranked {
		entries[i] = rankEntry{
			Service:    string(rk.Service),
			Provider:   string(rk.Provider),
			Score:      rk.Score,
			Trust:      rk.Trust.Score,
			Confidence: rk.Trust.Confidence,
			Utility:    rk.Utility,
		}
	}
	return &rankSnapshot{version: version, entries: entries}
}

// routes builds the HTTP mux. Health and drain endpoints bypass the
// shedder (they are the traffic an overloaded server must still answer);
// the data path is classed High (writes) and Normal (reads).
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("POST /submit", s.guard(resilience.High, s.handleSubmit))
	mux.HandleFunc("POST /local-trust", s.guard(resilience.High, s.handleLocalTrust))
	mux.HandleFunc("GET /rank", s.guard(resilience.Normal, s.handleRank))
	mux.HandleFunc("GET /compute-with-stats", s.guard(resilience.Normal, s.handleComputeStats))
	mux.HandleFunc("POST /drain", s.handleDrain)
	mux.HandleFunc("POST /promote", s.handlePromote)
	// Replication endpoints (status, snapshot transfer, WAL stream). The
	// stream is a long poll severed by drain, deliberately outside the
	// inflight-tracking guard — drain would otherwise wait on it forever.
	s.source.Register(mux)
	return mux
}

// handlePromote flips a follower to primary: stop tailing the old
// primary, open a new fencing epoch in the durable mark history, start
// accepting writes. Idempotent — promoting a primary reports its current
// epoch without opening a new one (folMu serializes racing promotions;
// only the caller that wins the role flip runs store.Promote).
func (s *server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if !s.role.CompareAndSwap(roleFollower, rolePrimary) {
		writeJSON(w, http.StatusOK, map[string]any{
			"promoted": false, "role": "primary", "epoch": s.store.Epoch(),
		})
		return
	}
	s.stopFollower()
	epoch, err := s.store.Promote()
	if err != nil {
		s.role.Store(roleFollower)
		httpError(w, http.StatusInternalServerError, "promote: "+err.Error())
		return
	}
	fmt.Printf("wsxd: promoted to primary at epoch %d (seq %d)\n", epoch, s.store.LastSeq())
	writeJSON(w, http.StatusOK, map[string]any{
		"promoted": true, "role": "primary", "epoch": epoch, "records": s.store.Len(),
	})
}

// rejectFollowerWrite refuses a write in follower role, pointing the
// client at the primary.
func (s *server) rejectFollowerWrite(w http.ResponseWriter) bool {
	if !s.isFollower() {
		return false
	}
	w.Header().Set("X-Replica-Primary", s.follow)
	httpError(w, http.StatusServiceUnavailable, "read-only replica: writes go to the primary")
	return true
}

// setReplicaHeaders stamps read responses with the follower's staleness
// bound: Replica-Lag is how many records this node trails the primary's
// last known position, and Replica-Stale: true marks degraded service
// (never contacted, or the stream is down and the lag figure may lag
// reality). Primary-role responses carry neither.
func (s *server) setReplicaHeaders(w http.ResponseWriter) {
	if !s.isFollower() {
		return
	}
	lag, contacted := s.fol.Lag()
	w.Header().Set("Replica-Lag", strconv.FormatUint(lag, 10))
	if !contacted || !s.fol.Streaming() {
		w.Header().Set("Replica-Stale", "true")
	}
}

// enter registers one in-flight request unless the server is draining.
func (s *server) enter() bool {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// isDraining reports the drain flag.
func (s *server) isDraining() bool {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.draining
}

// guard is the data-path middleware: refuse new intake while draining,
// shed by priority class under overload, and track in-flight requests so
// drain can wait them out.
func (s *server) guard(p resilience.Priority, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.shedder.Admit(p) {
			httpError(w, http.StatusTooManyRequests, "overloaded: request shed")
			return
		}
		if !s.enter() {
			httpError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		defer s.inflight.Done()
		h(w, r)
	}
}

// beginDrain runs the graceful-shutdown sequence exactly once: stop
// intake, wait out in-flight requests, snapshot the store (compacting
// the WAL so the next Open replays from a clean state), then signal
// completion. Safe to call from the drain endpoint and the signal
// handler concurrently; every caller returns after the sequence is done.
func (s *server) beginDrain() error {
	var snapErr error
	s.drainOnce.Do(func() {
		s.stateMu.Lock()
		s.draining = true
		s.stateMu.Unlock()
		// Stop replication first: the follower loop finishes its in-flight
		// batch apply durably before Run returns (so a restarted follower
		// resumes from the acked cursor), and closing drainStream severs
		// every stream this node is serving to its own followers — they
		// reconnect elsewhere and resume from their acked cursors.
		s.stopFollower()
		close(s.drainStream)
		s.inflight.Wait()
		if s.store.Durable() {
			snapErr = s.store.Snapshot()
		}
		close(s.drained)
	})
	return snapErr
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	role := "primary"
	if s.isFollower() {
		role = "follower"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ready", "records": s.store.Len(), "services": len(s.catalog),
		"role": role, "epoch": s.store.Epoch(),
	})
}

// submitRequest is the /submit body: one consumer feedback.
type submitRequest struct {
	Consumer string             `json:"consumer"`
	Service  string             `json:"service"`
	Provider string             `json:"provider"`
	Context  string             `json:"context"`
	Rating   float64            `json:"rating"`           // overall verdict in [0,1]
	Facets   map[string]float64 `json:"facets,omitempty"` // optional per-facet ratings
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.rejectFollowerWrite(w) {
		return
	}
	var req submitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	ratings := map[core.Facet]float64{core.FacetOverall: req.Rating}
	for f, v := range req.Facets {
		ratings[core.Facet(f)] = v
	}
	fb := core.Feedback{
		Consumer: core.ConsumerID(req.Consumer),
		Service:  core.ServiceID(req.Service),
		Provider: core.ProviderID(req.Provider),
		Context:  core.Context(req.Context),
		Ratings:  ratings,
		At:       s.clock.Now(),
	}
	if err := fb.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The breaker guards the durable write: persistent WAL failures trip
	// it, and subsequent submits fast-fail instead of queueing on a
	// broken disk. Validation errors were filtered above and never count
	// as breaker failures.
	err := s.breaker.Do(func() error { return s.store.Submit(fb) })
	switch {
	case errors.Is(err, resilience.ErrOpen):
		httpError(w, http.StatusServiceUnavailable, "registry circuit open")
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, "registry submit: "+err.Error())
		return
	}
	if err := s.getMech().Submit(fb); err != nil {
		// The store accepted what the mechanism rejected: surface it, the
		// durable log remains the source of truth.
		httpError(w, http.StatusInternalServerError, "mechanism submit: "+err.Error())
		return
	}
	s.rankVer.Add(1) // the published rank snapshot is now stale
	writeJSON(w, http.StatusOK, map[string]any{"accepted": true, "records": s.store.Len()})
}

// localTrustRequest is the /local-trust body: a batch of trust-delta
// ratings merged atomically. maxLocalTrustBatch bounds the intake so one
// request cannot monopolize the WAL group-commit queue.
type localTrustRequest struct {
	Ratings []submitRequest `json:"ratings"`
}

const maxLocalTrustBatch = 4096

// handleLocalTrust ingests a batch of local-trust observations in one
// durable group commit: every rating is validated before any state
// changes, the whole batch lands in the WAL behind a single fsync
// (registry.SubmitBatch), and only then streams into the mechanism's
// incremental state. The breaker guards the durable write exactly as
// /submit's does; validation errors never count as breaker failures.
func (s *server) handleLocalTrust(w http.ResponseWriter, r *http.Request) {
	if s.rejectFollowerWrite(w) {
		return
	}
	var req localTrustRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(req.Ratings) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Ratings) > maxLocalTrustBatch {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds limit %d", len(req.Ratings), maxLocalTrustBatch))
		return
	}
	now := s.clock.Now()
	fbs := make([]core.Feedback, len(req.Ratings))
	for i, rr := range req.Ratings {
		ratings := map[core.Facet]float64{core.FacetOverall: rr.Rating}
		for f, v := range rr.Facets {
			ratings[core.Facet(f)] = v
		}
		fbs[i] = core.Feedback{
			Consumer: core.ConsumerID(rr.Consumer),
			Service:  core.ServiceID(rr.Service),
			Provider: core.ProviderID(rr.Provider),
			Context:  core.Context(rr.Context),
			Ratings:  ratings,
			At:       now,
		}
		if err := fbs[i].Validate(); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("rating %d: %s", i, err))
			return
		}
	}
	err := s.breaker.Do(func() error { return s.store.SubmitBatch(fbs) })
	switch {
	case errors.Is(err, resilience.ErrOpen):
		httpError(w, http.StatusServiceUnavailable, "registry circuit open")
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, "registry submit batch: "+err.Error())
		return
	}
	mech := s.getMech()
	for i := range fbs {
		if err := mech.Submit(fbs[i]); err != nil {
			// The store accepted what the mechanism rejected: surface it,
			// the durable log remains the source of truth.
			httpError(w, http.StatusInternalServerError,
				fmt.Sprintf("mechanism submit %d: %s", i, err))
			return
		}
	}
	s.rankVer.Add(1) // the published rank snapshot is now stale
	writeJSON(w, http.StatusOK, map[string]any{
		"accepted": len(fbs), "records": s.store.Len(),
	})
}

// rankEntry is one /rank response row.
type rankEntry struct {
	Service    string  `json:"service"`
	Provider   string  `json:"provider"`
	Score      float64 `json:"score"`
	Trust      float64 `json:"trust"`
	Confidence float64 `json:"confidence"`
	Utility    float64 `json:"utility"`
}

func (s *server) handleRank(w http.ResponseWriter, r *http.Request) {
	consumer := r.URL.Query().Get("consumer")
	if consumer == "" {
		httpError(w, http.StatusBadRequest, "missing consumer parameter")
		return
	}
	n := 5
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			httpError(w, http.StatusBadRequest, "n must be a positive integer")
			return
		}
		n = v
	}

	// The request's whole allowance — queueing for a bulkhead slot plus
	// the ranking itself — comes from one deadline budget.
	budget := resilience.NewBudget(s.clock, s.timeout)
	ctx, cancel := context.WithDeadline(r.Context(), budget.Deadline())
	defer cancel()
	if err := s.bulkhead.Acquire(ctx); err != nil {
		httpError(w, http.StatusServiceUnavailable, "ranking compartment full")
		return
	}
	defer s.bulkhead.Release()
	if budget.Exceeded() {
		httpError(w, http.StatusGatewayTimeout, "deadline exhausted waiting for a slot")
		return
	}

	snap := s.freshRankSnapshot(core.ConsumerID(consumer))
	out := snap.entries
	if n < len(out) {
		out = out[:n:n]
	}
	s.setReplicaHeaders(w)
	writeJSON(w, http.StatusOK, map[string]any{"consumer": consumer, "ranked": out})
}

// computeEntry is one /compute-with-stats response row.
type computeEntry struct {
	Service    string  `json:"service"`
	Score      float64 `json:"score"`
	Confidence float64 `json:"confidence"`
	Known      bool    `json:"known"`
}

// handleComputeStats scores the whole catalog through the mechanism and
// attaches the convergence statistics of the compute that answered —
// {iterations, residual, warmStart} — when the mechanism reports them
// (eigentrust, pagerank); mechanisms without a fixpoint (beta) return
// stats: null. Scoring triggers the mechanism's own refresh, so on the
// incremental eigentrust path this is the streaming read side of the
// /local-trust write side: a warm-started, residual-bounded fixpoint
// instead of a cold power iteration. Runs inside the rank bulkhead under
// the request's deadline budget.
func (s *server) handleComputeStats(w http.ResponseWriter, r *http.Request) {
	consumer := r.URL.Query().Get("consumer") // optional: empty asks the global view

	budget := resilience.NewBudget(s.clock, s.timeout)
	ctx, cancel := context.WithDeadline(r.Context(), budget.Deadline())
	defer cancel()
	if err := s.bulkhead.Acquire(ctx); err != nil {
		httpError(w, http.StatusServiceUnavailable, "ranking compartment full")
		return
	}
	defer s.bulkhead.Release()
	if budget.Exceeded() {
		httpError(w, http.StatusGatewayTimeout, "deadline exhausted waiting for a slot")
		return
	}

	mech := s.getMech()
	cr, hasStats := mech.(core.ConvergenceReporter)
	var stats any
	scores := make([]computeEntry, len(s.catalog))
	for i, c := range s.catalog {
		tv, ok := mech.Score(core.Query{
			Perspective: core.ConsumerID(consumer),
			Subject:     c.Service,
			Context:     core.Context(s.category),
			Facet:       core.FacetOverall,
		})
		scores[i] = computeEntry{
			Service: string(c.Service), Score: tv.Score,
			Confidence: tv.Confidence, Known: ok,
		}
		// The first Score triggers the refresh that folds every pending
		// delta in; the rest reuse the fresh vector (their refreshes are
		// no-ops and would overwrite the stats with zeros). Capture the
		// compute that actually did the work.
		if i == 0 && hasStats {
			stats = cr.LastConvergence()
		}
	}
	s.setReplicaHeaders(w)
	writeJSON(w, http.StatusOK, map[string]any{
		"mechanism": mech.Name(), "scores": scores, "stats": stats,
	})
}

func (s *server) handleDrain(w http.ResponseWriter, r *http.Request) {
	if err := s.beginDrain(); err != nil {
		httpError(w, http.StatusInternalServerError, "drain snapshot: "+err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"drained": true, "records": s.store.Len()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status line is already out; nothing useful remains to send.
		_ = err
	}
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]any{"error": msg})
}
