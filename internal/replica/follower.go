package replica

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"wstrust/internal/core"
	"wstrust/internal/fault"
	"wstrust/internal/registry"
	"wstrust/internal/resilience"
	"wstrust/internal/simclock"
)

// errDiverged marks a sync attempt that found the local log incompatible
// with the primary's (409 from the stream, or a local state mismatch):
// the follower must wipe and re-seed from a snapshot.
var errDiverged = errors.New("replica: local log diverged from primary")

// errFencedSource marks a primary whose epoch is behind the follower's
// own — a deposed primary. The follower refuses to sync from it: syncing
// would hand a fenced node's divergent history to a promoted replica.
var errFencedSource = errors.New("replica: source epoch is behind local fence")

// Config assembles a Follower. Store and Primary are required; everything
// else defaults sanely for a daemon (wall clock, real sleep, default
// retry policy and breaker).
type Config struct {
	// Primary is the base URL of the node to follow.
	Primary string
	// Store is the local registry replicated into.
	Store *registry.Store
	// Client issues the HTTP requests (default http.DefaultClient; the
	// daemon passes one with timeouts on the control fetches).
	Client *http.Client
	// Policy is the reconnect backoff schedule, ridden between failed
	// sync attempts (default fault.DefaultPolicy).
	Policy fault.Policy
	// Breaker gates sync attempts so a dead primary costs one probe per
	// cooldown instead of a tight retry loop.
	Breaker resilience.BreakerConfig
	// Clock times the breaker cooldowns and control-fetch budgets
	// (default simclock.Wall). Tests pair a Virtual clock with a Sleep
	// that advances it.
	Clock simclock.Clock
	// Sleep blocks between sync attempts (default simclock.SleepWall).
	Sleep func(time.Duration)
	// Seed feeds the jittered backoff schedule and breaker jitter.
	Seed int64
	// FetchTimeout budgets each control fetch — status and snapshot
	// (default 30s). The stream itself has no deadline; it is severed by
	// context cancellation or the primary going away.
	FetchTimeout time.Duration
	// BatchApply bounds the frames applied per durable group commit when
	// the stream delivers a backlog (default 256).
	BatchApply int
	// OnApply, when non-nil, observes every batch of replicated records
	// after it lands — wsxd feeds its mechanism state and rank-session
	// invalidation from this.
	OnApply func([]core.Feedback)
	// OnReseed, when non-nil, runs after a snapshot bootstrap replaced
	// the whole local state (the incremental OnApply feed does not cover
	// it) — wsxd rebuilds its mechanism from the store here.
	OnReseed func()
	// Logf, when non-nil, receives progress lines (bootstrap, fence
	// refusals, stream severs).
	Logf func(format string, args ...any)
}

// Follower replicates a primary into the local store. Run drives the
// loop; the accessors are safe from any goroutine.
type Follower struct {
	cfg     Config
	breaker *resilience.Breaker
	backoff []time.Duration

	primarySeq atomic.Uint64 // highest sequence the primary reported
	contacted  atomic.Bool   // a status fetch has succeeded at least once
	streaming  atomic.Bool   // a stream is currently open
}

// New builds a Follower from cfg, filling defaults.
func New(cfg Config) (*Follower, error) {
	if cfg.Store == nil {
		return nil, errors.New("replica: Config.Store is required")
	}
	if _, err := url.Parse(cfg.Primary); err != nil || cfg.Primary == "" {
		return nil, fmt.Errorf("replica: bad primary URL %q", cfg.Primary)
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Wall()
	}
	if cfg.Sleep == nil {
		cfg.Sleep = simclock.SleepWall
	}
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = 30 * time.Second
	}
	if cfg.BatchApply <= 0 {
		cfg.BatchApply = 256
	}
	if cfg.Policy.MaxAttempts < 1 {
		cfg.Policy = fault.DefaultPolicy()
	}
	f := &Follower{
		cfg:     cfg,
		breaker: resilience.NewBreaker(cfg.Breaker, cfg.Clock, simclock.Stream(cfg.Seed, "replica.breaker")),
	}
	f.backoff = cfg.Policy.Schedule(cfg.Seed)
	if len(f.backoff) == 0 {
		f.backoff = fault.DefaultPolicy().Schedule(cfg.Seed)
	}
	f.primarySeq.Store(cfg.Store.LastSeq())
	return f, nil
}

// Lag reports how many records the follower is behind the primary's last
// known position, and whether the primary has ever been contacted (false
// means the lag is a lower bound from the local state alone).
func (f *Follower) Lag() (records uint64, contacted bool) {
	local := f.cfg.Store.LastSeq()
	primary := f.primarySeq.Load()
	if primary > local {
		records = primary - local
	}
	return records, f.contacted.Load()
}

// Streaming reports whether a WAL stream is currently open to the
// primary — false while degraded to serving stale reads.
func (f *Follower) Streaming() bool { return f.streaming.Load() }

// Run drives the replication loop until ctx is cancelled: sync attempts
// through the breaker, the Policy's jittered backoff schedule between
// failures (restarting from the top after any successful stream), stale
// reads served by the store's views throughout. Run never returns an
// error — a follower degrades, it does not die.
func (f *Follower) Run(ctx context.Context) {
	attempt := 0
	for ctx.Err() == nil {
		err := f.breaker.Do(func() error { return f.syncOnce(ctx) })
		if ctx.Err() != nil {
			return
		}
		if err == nil {
			// The stream ended cleanly (primary drained or severed after
			// feeding us); reconnect promptly.
			attempt = 0
			continue
		}
		if !errors.Is(err, resilience.ErrOpen) {
			f.logf("replica: sync: %v", err)
		}
		d := f.backoff[attempt%len(f.backoff)]
		if attempt < len(f.backoff) {
			attempt++
		}
		f.cfg.Sleep(d)
	}
}

// syncOnce performs one full sync attempt: fetch status, refuse fenced
// sources, adopt the primary's mark history, bootstrap from snapshot when
// empty or diverged, then stream frames until the connection ends. A nil
// return means frames flowed and the stream ended cleanly.
func (f *Follower) syncOnce(ctx context.Context) error {
	st, err := f.fetchStatus(ctx)
	if err != nil {
		return err
	}
	f.contacted.Store(true)
	if st.LastSeq > f.primarySeq.Load() {
		f.primarySeq.Store(st.LastSeq)
	}
	// Fence check first: a deposed primary must be refused before any
	// divergence handling could talk us into wiping local state.
	if st.Epoch < f.cfg.Store.Epoch() {
		return fmt.Errorf("%w: source %d < local %d", errFencedSource, st.Epoch, f.cfg.Store.Epoch())
	}
	if err := f.adopt(ctx, st); err != nil {
		return err
	}
	err = f.stream(ctx)
	if errors.Is(err, errDiverged) {
		// The cursor check failed server-side; re-seed and stream again.
		if err := f.bootstrap(ctx, st); err != nil {
			return err
		}
		err = f.stream(ctx)
	}
	return err
}

// adopt brings local replication state in line with the primary's status:
// install its mark history (prefix-extension only) and bootstrap from a
// snapshot when the local store is empty, behind a compaction horizon, or
// provably diverged. Mark-history conflicts are divergence, not failure.
func (f *Follower) adopt(ctx context.Context, st Status) error {
	diverged := false
	if err := f.cfg.Store.InstallMarks(st.Marks); err != nil {
		if !errors.Is(err, registry.ErrFenced) {
			return err
		}
		f.logf("replica: mark history diverged: %v", err)
		diverged = true
	}
	local := f.cfg.Store.LastSeq()
	if local > st.LastSeq {
		f.logf("replica: local seq %d is beyond primary %d: diverged", local, st.LastSeq)
		diverged = true
	}
	if diverged || (local == 0 && st.LastSeq > 0 && f.cfg.Store.Len() == 0) {
		return f.bootstrap(ctx, st)
	}
	return nil
}

// bootstrap wipes local state and re-seeds it from the primary's snapshot
// transfer — the initial catch-up for an empty follower and the recovery
// path for a diverged one. The transfer is checksummed end to end; a
// corrupt body is rejected before anything is applied.
func (f *Follower) bootstrap(ctx context.Context, st Status) error {
	budget := resilience.NewBudget(f.cfg.Clock, f.cfg.FetchTimeout)
	body, hdr, err := f.get(ctx, "/replica/snapshot", nil)
	if err != nil {
		return err
	}
	if budget.Exceeded() {
		return fmt.Errorf("replica: snapshot transfer exceeded %v budget", f.cfg.FetchTimeout)
	}
	if err := f.cfg.Store.ResetReplica(); err != nil {
		return err
	}
	// Marks install while the store is still empty: InstallMarks rejects
	// mark starts at or below the local sequence, and the seeded frames
	// carry their epochs in the document itself.
	if err := f.cfg.Store.InstallMarks(st.Marks); err != nil {
		return err
	}
	n, err := f.cfg.Store.SeedFromSnapshot(body)
	if err != nil {
		return err
	}
	f.logf("replica: bootstrapped %d records to seq %d (primary seq %s)", n, f.cfg.Store.LastSeq(), hdr.Get("X-Replica-Seq"))
	if f.cfg.OnReseed != nil {
		f.cfg.OnReseed()
	}
	return nil
}

// stream opens the WAL tail at the local cursor and applies frames in
// durable batches until the connection ends. 403 means we are fenced
// ahead of the source (error), 409 means the cursor diverged
// (errDiverged — caller re-seeds), and a stream that ends before it
// delivered a frame is an error too.
func (f *Follower) stream(ctx context.Context) error {
	store := f.cfg.Store
	from := store.LastSeq()
	q := url.Values{}
	q.Set("from", fmt.Sprint(from))
	q.Set("fromEpoch", fmt.Sprint(store.EpochAt(from)))
	q.Set("fence", fmt.Sprint(store.Epoch()))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.cfg.Primary+"/wal/stream?"+q.Encode(), nil)
	if err != nil {
		return fmt.Errorf("replica: stream request: %w", err)
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return fmt.Errorf("replica: stream: %w", err)
	}
	defer func() {
		if cerr := resp.Body.Close(); cerr != nil {
			f.logf("replica: close stream body: %v", cerr)
		}
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusForbidden:
		return fmt.Errorf("%w: stream refused (source epoch %s)", errFencedSource, resp.Header.Get("X-Replica-Epoch"))
	case http.StatusConflict:
		return fmt.Errorf("%w: %s", errDiverged, readErrorBody(resp.Body))
	default:
		return fmt.Errorf("replica: stream: unexpected status %s", resp.Status)
	}
	if seq, err := strconv.ParseUint(resp.Header.Get("X-Replica-Seq"), 10, 64); err == nil && seq > f.primarySeq.Load() {
		f.primarySeq.Store(seq)
	}

	f.streaming.Store(true)
	defer f.streaming.Store(false)
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	var batch []registry.Frame
	applied := false
	for {
		// Block for one frame, then drain whatever else is already
		// buffered (up to BatchApply) so a backlog lands in few group
		// commits instead of one fsync per frame.
		line, err := br.ReadBytes('\n')
		if err != nil {
			// EOF/severed: everything applied so far is durable; the
			// next attempt resumes from the acked cursor.
			if len(line) > 0 {
				f.logf("replica: stream severed mid-frame (%d bytes discarded)", len(line))
			}
			if !applied {
				// Nothing flowed: a failed attempt, so Run backs off
				// instead of reconnecting at once.
				return errors.New("replica: stream ended before any frame")
			}
			return nil
		}
		batch = batch[:0]
		fr, err := registry.ParseWire(line[:len(line)-1])
		if err != nil {
			return fmt.Errorf("replica: stream frame: %w", err)
		}
		batch = append(batch, fr)
		for len(batch) < f.cfg.BatchApply && br.Buffered() > 0 {
			line, err := br.ReadBytes('\n')
			if err != nil {
				break
			}
			fr, err := registry.ParseWire(line[:len(line)-1])
			if err != nil {
				return fmt.Errorf("replica: stream frame: %w", err)
			}
			batch = append(batch, fr)
		}
		fbs, err := store.ApplyReplicated(batch)
		if err != nil {
			if errors.Is(err, registry.ErrFenced) || errors.Is(err, registry.ErrSeqGap) {
				return fmt.Errorf("%w: %v", errDiverged, err)
			}
			return err
		}
		applied = true
		if last := batch[len(batch)-1].Seq; last > f.primarySeq.Load() {
			f.primarySeq.Store(last)
		}
		if f.cfg.OnApply != nil {
			f.cfg.OnApply(fbs)
		}
	}
}

// fetchStatus gets the primary's replication status under the fetch
// budget.
func (f *Follower) fetchStatus(ctx context.Context) (Status, error) {
	var st Status
	budget := resilience.NewBudget(f.cfg.Clock, f.cfg.FetchTimeout)
	body, _, err := f.get(ctx, "/replica/status", nil)
	if err != nil {
		return st, err
	}
	if budget.Exceeded() {
		return st, fmt.Errorf("replica: status fetch exceeded %v budget", f.cfg.FetchTimeout)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("replica: decode status: %w", err)
	}
	return st, nil
}

// get issues one GET against the primary and returns the body.
func (f *Follower) get(ctx context.Context, path string, q url.Values) ([]byte, http.Header, error) {
	u := f.cfg.Primary + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("replica: request %s: %w", path, err)
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("replica: %s: %w", path, err)
	}
	defer func() {
		if cerr := resp.Body.Close(); cerr != nil {
			f.logf("replica: close %s body: %v", path, cerr)
		}
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.Header, fmt.Errorf("replica: %s: unexpected status %s: %s", path, resp.Status, readErrorBody(resp.Body))
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.Header, fmt.Errorf("replica: read %s body: %w", path, err)
	}
	return body, resp.Header, nil
}

// logf forwards to the configured logger, if any.
func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// readErrorBody salvages a bounded error body for diagnostics.
func readErrorBody(r io.Reader) string {
	b, err := io.ReadAll(io.LimitReader(r, 256))
	if err != nil {
		return ""
	}
	return string(bytesTrim(b))
}

// bytesTrim drops trailing newlines from an error body.
func bytesTrim(b []byte) []byte {
	for len(b) > 0 && (b[len(b)-1] == '\n' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}
