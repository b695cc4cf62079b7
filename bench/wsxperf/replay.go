package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wstrust/internal/core"
	"wstrust/internal/loadgen"
	"wstrust/internal/qos"
	"wstrust/internal/registry"
	"wstrust/internal/resilience"
	"wstrust/internal/simclock"
	"wstrust/internal/trust/beta"
	"wstrust/internal/trust/eigentrust"
	"wstrust/internal/workload"
)

// inproc is cmd/wsxd's serving stack assembled in the benchmark's own
// process from the same public constructors newServer uses. Its handlers
// call the layers in the order wsxd's handlers do, with a span around
// each call.
type inproc struct {
	w       *serveWorkload
	clock   simclock.Clock
	dir     string
	store   *registry.Store
	mech    core.Mechanism
	catalog []core.Candidate
	prefs   qos.Preferences

	shedder  *resilience.Shedder
	bulkhead *resilience.Bulkhead
	breaker  *resilience.Breaker

	rankMu   sync.Mutex
	session  *core.RankSession // guarded by rankMu
	rankVer  atomic.Uint64
	rankSnap atomic.Pointer[rankSnap]

	ranks, rebuilds, stale atomic.Int64
	computes, warm, iters  atomic.Int64

	// Span names of the mechanism's calls.
	snMechSubmit, snRefresh, snScore spanName

	snapMu sync.Mutex
	snapID fileIdentity // guarded by snapMu
}

// rankSnap is a published ranking, as wsxd's rankSnapshot.
type rankSnap struct {
	version uint64
	entries []rankEntry
}

type rankEntry struct {
	Service    string  `json:"service"`
	Provider   string  `json:"provider"`
	Score      float64 `json:"score"`
	Trust      float64 `json:"trust"`
	Confidence float64 `json:"confidence"`
	Utility    float64 `json:"utility"`
}

type computeEntry struct {
	Service    string  `json:"service"`
	Score      float64 `json:"score"`
	Confidence float64 `json:"confidence"`
	Known      bool    `json:"known"`
}

// wsxdTimeout is wsxd's default per-request deadline budget.
const wsxdTimeout = 2 * time.Second

func newMech(name string) core.Mechanism {
	if name == "eigentrust" {
		return eigentrust.New(eigentrust.WithEpsilon(1e-9))
	}
	return beta.New()
}

// openTimes is what booting the stack in process costs, by layer.
type openTimes struct {
	open, replay, coldRefresh time.Duration
}

// openInproc opens dir as wsxd boots: recover the store, replay it into a
// fresh mechanism, build the catalog and the first ranking. For
// eigentrust it also times the cold refresh the first compute pays.
//
//lint:guarded openInproc builds the stack; it is not shared until returned
func openInproc(dir string, w *serveWorkload, seed int64) (*inproc, openTimes, error) {
	var ot openTimes
	clock := simclock.Wall()
	t0 := clock.Now()
	store, _, err := registry.Open(dir, registry.WALOptions{SyncEvery: 1, SnapshotEvery: compactEvery})
	if err != nil {
		return nil, ot, err
	}
	t1 := clock.Now()
	mech := newMech(w.mech)
	if _, err := store.Replay(mech); err != nil {
		return nil, ot, closeAfter(store, err)
	}
	t2 := clock.Now()
	ot.open, ot.replay = t1.Sub(t0), t2.Sub(t1)
	if w.mech == "eigentrust" {
		mech.Score(core.Query{Subject: core.NewServiceID(1), Context: wsxdCategory, Facet: core.FacetOverall})
		ot.coldRefresh = clock.Now().Sub(t2)
	}

	specs := workload.GenerateServices(simclock.Stream(seed, "services"),
		workload.ServiceOptions{N: w.services, Category: wsxdCategory})
	s := &inproc{
		w: w, clock: clock, dir: dir, store: store, mech: mech,
		snMechSubmit: intern(w.mech + ".submit"),
		snRefresh:    intern(w.mech + ".refresh"),
		snScore:      intern(w.mech + ".score"),
		catalog:      make([]core.Candidate, len(specs)),
		prefs:        workload.BasePreferences(),
		shedder:      resilience.NewShedder(resilience.ShedderConfig{Rate: 1e6}, clock),
		bulkhead:     resilience.NewBulkhead(8),
		breaker: resilience.NewBreaker(resilience.BreakerConfig{}, clock,
			simclock.Stream(seed, "wsxd.breaker")),
	}
	for i, sp := range specs {
		s.catalog[i] = sp.Desc.Candidate()
	}
	engine := core.NewEngine(mech, simclock.Stream(seed, "wsxd.engine"))
	s.session = engine.NewRankSession(s.catalog)
	s.rankSnap.Store(s.buildRankLocked(""))
	if s.snapID, err = identityOf(filepath.Join(dir, "snapshot.wsx")); err != nil {
		return nil, ot, closeAfter(store, err)
	}
	return s, ot, nil
}

// buildRankLocked ranks the catalog and freezes the result, as wsxd's
// buildRankSnapshotLocked.
//
//lint:guarded buildRankLocked runs with rankMu held, or before the stack is shared
func (s *inproc) buildRankLocked(consumer core.ConsumerID) *rankSnap {
	version := s.rankVer.Load()
	ranked := s.session.Rank(consumer, s.prefs)
	entries := make([]rankEntry, len(ranked))
	for i, rk := range ranked {
		entries[i] = rankEntry{
			Service: string(rk.Service), Provider: string(rk.Provider), Score: rk.Score,
			Trust: rk.Trust.Score, Confidence: rk.Trust.Confidence, Utility: rk.Utility,
		}
	}
	return &rankSnap{version: version, entries: entries}
}

// handle serves one request, with spans under a root named after its op
// when t is not nil. It returns how long the request took and, for
// writes, whether the call replaced snapshot.wsx: the compaction it
// carried. The check runs after the timed part.
func (s *inproc) handle(t *tracer, id int64, r *request, buf *bytes.Buffer) (took time.Duration, compacted bool, err error) {
	start := s.clock.Now()
	root := t.beginAt(start, 0, id, rootNames[r.op])
	var last mark
	switch r.op {
	case opSubmit, opLocalTrust:
		last, err = s.write(t, root, r, buf)
	case opRank:
		last, err = s.rank(t, root, r, buf)
	case opCompute:
		last, err = s.compute(t, root, r, buf)
	}
	stop := s.clock.Now()
	t.endAt(last, stop)
	t.endAt(root, stop)
	took = stop.Sub(start)
	if err != nil || s.w.records(r.op) == 0 {
		return took, false, err
	}
	compacted, err = s.compactedSince()
	return took, compacted, err
}

// compactedSince reports whether snapshot.wsx changed since the last
// check.
func (s *inproc) compactedSince() (bool, error) {
	id, err := identityOf(filepath.Join(s.dir, "snapshot.wsx"))
	if err != nil {
		return false, err
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	changed := id != s.snapID
	s.snapID = id
	return changed, nil
}

var errShed = errors.New("request shed")

// admit opens the request's first layer span, the shedder's, at the
// instant the request started.
func (s *inproc) admit(t *tracer, root mark, p resilience.Priority) (mark, error) {
	m := t.firstChild(root, snAdmit)
	if !s.shedder.Admit(p) {
		return m, errShed
	}
	return m, nil
}

func encodeTo(buf *bytes.Buffer, v any) error {
	buf.Reset()
	return json.NewEncoder(buf).Encode(v)
}

// decodeRatings decodes a /submit or /local-trust body as wsxd does.
func decodeRatings(body []byte, batch bool, now time.Time) ([]core.Feedback, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var rs []rating
	if batch {
		var req struct {
			Ratings []rating `json:"ratings"`
		}
		if err := dec.Decode(&req); err != nil {
			return nil, err
		}
		rs = req.Ratings
	} else {
		var one rating
		if err := dec.Decode(&one); err != nil {
			return nil, err
		}
		rs = []rating{one}
	}
	fbs := make([]core.Feedback, len(rs))
	for i, r := range rs {
		fbs[i] = feedbackOf(r, now)
	}
	return fbs, nil
}

// write is /submit and /local-trust: admit, decode, validate, the durable
// write under the breaker, the mechanism update, encode. Each step runs
// only if the ones before it succeeded. Like every handler it returns its
// last span still open, for handle to close when the request ends.
func (s *inproc) write(t *tracer, root mark, r *request, buf *bytes.Buffer) (mark, error) {
	batch := r.op == opLocalTrust
	m, err := s.admit(t, root, resilience.High)
	var fbs []core.Feedback
	if err == nil {
		m = t.next(m, snDecode)
		fbs, err = decodeRatings(r.body, batch, s.clock.Now())
	}
	if err == nil {
		m = t.next(m, snValidate)
		for i := range fbs {
			if err = fbs[i].Validate(); err != nil {
				break
			}
		}
	}
	if err == nil {
		m = t.next(m, snBreaker)
		br := m
		err = s.breaker.Do(func() error {
			if batch {
				rm := t.begin(br.id, br.req, snSubmitBatch)
				defer t.end(rm)
				return s.store.SubmitBatch(fbs)
			}
			rm := t.begin(br.id, br.req, snSubmit)
			defer t.end(rm)
			return s.store.Submit(fbs[0])
		})
	}
	if err == nil {
		m = t.next(m, s.snMechSubmit)
		for i := range fbs {
			if err = s.mech.Submit(fbs[i]); err != nil {
				break
			}
		}
	}
	if err == nil {
		s.rankVer.Add(1)
		m = t.next(m, snEncode)
		if batch {
			err = encodeTo(buf, map[string]any{"accepted": len(fbs), "records": s.store.Len()})
		} else {
			err = encodeTo(buf, map[string]any{"accepted": true, "records": s.store.Len()})
		}
	}
	return m, err
}

// slot takes a bulkhead slot under a deadline budget, as the read
// handlers do; release must be called when err is nil.
func (s *inproc) slot() (release func(), err error) {
	budget := resilience.NewBudget(s.clock, wsxdTimeout)
	ctx, cancel := context.WithDeadline(context.Background(), budget.Deadline())
	if err := s.bulkhead.Acquire(ctx); err != nil {
		cancel()
		return nil, err
	}
	if budget.Exceeded() {
		s.bulkhead.Release()
		cancel()
		return nil, errors.New("deadline exhausted waiting for a slot")
	}
	return func() { s.bulkhead.Release(); cancel() }, nil
}

func (s *inproc) rank(t *tracer, root mark, r *request, buf *bytes.Buffer) (mark, error) {
	m, err := s.admit(t, root, resilience.Normal)
	var consumer string
	var n int
	if err == nil {
		m = t.next(m, snDecode)
		consumer, n, err = rankQuery(r.path)
	}
	var release func()
	if err == nil {
		m = t.next(m, snBulkhead)
		release, err = s.slot()
	}
	if err == nil {
		defer release()
		var snap *rankSnap
		snap, m = s.freshRank(t, m, core.ConsumerID(consumer))
		out := snap.entries
		if n < len(out) {
			out = out[:n:n]
		}
		m = t.next(m, snEncode)
		err = encodeTo(buf, map[string]any{"consumer": consumer, "ranked": out})
	}
	return m, err
}

func rankQuery(path string) (consumer string, n int, err error) {
	u, err := url.Parse(path)
	if err != nil {
		return "", 0, err
	}
	q := u.Query()
	if n, err = strconv.Atoi(q.Get("n")); err != nil {
		return "", 0, err
	}
	return q.Get("consumer"), n, nil
}

// freshRank is wsxd's freshRankSnapshot: serve the published ranking
// when no submit landed since it was built, else let the one TryLock
// winner rebuild it while everyone else serves the stale copy. The two
// atomic loads of the fast path stay in the open span m; a rebuild gets
// a span of its own, returned open.
func (s *inproc) freshRank(t *tracer, m mark, consumer core.ConsumerID) (*rankSnap, mark) {
	s.ranks.Add(1)
	snap := s.rankSnap.Load()
	if snap.version == s.rankVer.Load() {
		return snap, m
	}
	if !s.rankMu.TryLock() {
		s.stale.Add(1)
		return s.rankSnap.Load(), m
	}
	defer s.rankMu.Unlock()
	s.rebuilds.Add(1)
	m = t.next(m, snRebuild)
	ns := s.buildRankLocked(consumer)
	s.rankSnap.Store(ns)
	return ns, m
}

// compute is /compute-with-stats: the first Score refreshes the
// mechanism, the rest read the refreshed vector.
func (s *inproc) compute(t *tracer, root mark, r *request, buf *bytes.Buffer) (mark, error) {
	m, err := s.admit(t, root, resilience.Normal)
	var u *url.URL
	if err == nil {
		m = t.next(m, snDecode)
		u, err = url.Parse(r.path)
	}
	var release func()
	if err == nil {
		m = t.next(m, snBulkhead)
		release, err = s.slot()
	}
	if err == nil {
		defer release()
		consumer := u.Query().Get("consumer")
		cr, hasStats := s.mech.(core.ConvergenceReporter)
		var stats core.ConvergenceStats
		scores := make([]computeEntry, len(s.catalog))
		m = t.next(m, s.snRefresh)
		for i, c := range s.catalog {
			tv, ok := s.mech.Score(core.Query{
				Perspective: core.ConsumerID(consumer), Subject: c.Service,
				Context: wsxdCategory, Facet: core.FacetOverall,
			})
			scores[i] = computeEntry{Service: string(c.Service), Score: tv.Score, Confidence: tv.Confidence, Known: ok}
			if i == 0 {
				if hasStats {
					stats = cr.LastConvergence()
				}
				m = t.next(m, s.snScore)
			}
		}
		s.computes.Add(1)
		s.iters.Add(int64(stats.Iterations))
		if stats.WarmStart {
			s.warm.Add(1)
		}
		m = t.next(m, snEncode)
		err = encodeTo(buf, map[string]any{"mechanism": s.mech.Name(), "scores": scores, "stats": stats})
	}
	return m, err
}

// replayResult is the in-process replay of one rung.
type replayResult struct {
	spans       []span
	took        []time.Duration // by request index; 0 for warmup and failed requests
	compactions []time.Duration // duration of each write that replaced snapshot.wsx
	problems    []string
}

// replayer offers a schedule to one in-process stack a chunk at a time.
type replayer struct {
	s       *inproc
	tracers []*tracer // one per connection; nil when untraced
	res     *replayResult
}

func (s *inproc) replayer(n int, origin time.Time, traced bool) *replayer {
	rp := &replayer{s: s, tracers: make([]*tracer, conns), res: &replayResult{took: make([]time.Duration, n)}}
	if traced {
		for c := range rp.tracers {
			rp.tracers[c] = newTracerAt(origin, int64(c+1), 8*n/conns)
		}
	}
	return rp
}

// run offers reqs[lo:hi] on the live run's open-loop clock, restarted at
// lo, over as many workers as the live run had connections, and waits
// for every answer. Requests before warm are served but not kept.
func (rp *replayer) run(reqs []request, lo, hi int, rate float64, warm int) {
	clock := simclock.Wall()
	queue := make(chan int, hi-lo)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, t := range rp.tracers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range queue {
				r := &reqs[i]
				d, compacted, err := rp.s.handle(t, int64(i), r, &buf)
				if err == nil && i >= warm {
					rp.res.took[i] = d // each index is written by one worker
				}
				if err == nil && !compacted {
					continue
				}
				mu.Lock()
				if err != nil && len(rp.res.problems) < 8 {
					rp.res.problems = append(rp.res.problems, fmt.Sprintf("in-process %s: %v", r.op, err))
				}
				if compacted {
					rp.res.compactions = append(rp.res.compactions, d)
				}
				mu.Unlock()
			}
		}()
	}
	pacer := loadgen.NewPacer(rate, clock.Now, simclock.SleepWall)
	pacer.Start()
	for i := lo; i < hi; i++ {
		pacer.Next()
		queue <- i
	}
	close(queue)
	wg.Wait()
}

// replayChunk is how much of the schedule one stack serves before the
// other takes its turn.
const replayChunk = 100 * time.Millisecond

// replayPaired replays the rung's schedule on two stacks booted from the
// same preload, untraced on a and traced on b, so that every request is
// timed once without spans and once with them. The stacks take turns a
// chunk at a time, each going first in every other chunk, so that
// neither gains from running later or warmer; the warmup is the first
// chunk. A chunk holds an even number of requests: with one request a
// chunk, a workload that alternates two ops would always run one op
// untraced first and the other traced first.
func replayPaired(a, b *inproc, reqs []request, rate float64, warm int) (untraced, traced *replayResult) {
	origin := simclock.Wall().Now()
	ra, rb := a.replayer(len(reqs), origin, false), b.replayer(len(reqs), origin, true)
	chunk := max(int(rate*replayChunk.Seconds()), 1)
	chunk += chunk % 2
	for k, lo := 0, 0; lo < len(reqs); k++ {
		hi := min(lo+chunk, len(reqs))
		if k == 0 && warm > 0 {
			hi = warm
		}
		first, second := ra, rb
		if k%2 == 1 {
			first, second = rb, ra
		}
		first.run(reqs, lo, hi, rate, warm)
		second.run(reqs, lo, hi, rate, warm)
		lo = hi
	}
	for _, t := range rb.tracers {
		rb.res.spans = append(rb.res.spans, t.spans()...)
	}
	return ra.res, rb.res
}

// spanStats summarizes the spans of one name.
type spanStats struct {
	n        int
	selfSum  time.Duration
	durs     latencies
	children time.Duration // of root spans: time covered by layer spans
}

func (st *spanStats) meanSelf() time.Duration {
	if st == nil || st.n == 0 {
		return 0
	}
	return st.selfSum / time.Duration(st.n)
}

func (st *spanStats) p99Us() float64 {
	if st == nil || st.n == 0 {
		return 0
	}
	return st.durs.pctMs(99) * 1000
}

func summarizeSpans(spans []span) map[string]*spanStats {
	self := selfTimes(spans)
	out := map[string]*spanStats{}
	for _, sp := range spans {
		st := out[sp.Name.String()]
		if st == nil {
			st = &spanStats{}
			out[sp.Name.String()] = st
		}
		d := time.Duration(sp.End - sp.Start)
		st.n++
		st.selfSum += time.Duration(self[sp.ID])
		st.durs.add(d)
		if sp.Parent == 0 {
			st.children += d - time.Duration(self[sp.ID])
		}
	}
	return out
}

// serveTraced measures a serving workload layer by layer: one run live at
// the reference rate with the daemon's GC trace on, three in-process boots
// of the preload, and the in-process replay of the live run's schedule.
// The live window is half the measuring time, longer than a reference
// run's share of it, so that the replays time enough requests to resolve
// what tracing costs; the two replays take as long again.
func (e *env) serveTraced(wl *benchWorkload, rep *report) error {
	w := e.shape(wl.serve)
	pop := newPopulation(w, e.seed)
	pre, err := e.preload(wl.name, w, pop)
	if err != nil {
		return err
	}
	p := e.refPlans(w)[0]
	if !e.smoke {
		p.span = time.Duration(e.seconds / 2 * float64(time.Second))
	}
	live, err := e.rung(w, pop, pre, p, true)
	if err != nil {
		return err
	}
	rep.attempted += live.attempted()
	rep.failed += live.failed()
	rep.problem(wl.name, live.problems...)

	// Three in-process boots of the preload time the layers of set-up. The
	// last two replay the live schedule side by side, one untraced and one
	// traced: each request's two times measure what tracing it cost.
	var opens, replays, colds []float64
	var stacks []*inproc
	for k := 0; k < 3; k++ {
		dir := filepath.Join(e.work, fmt.Sprintf("inproc-%d", k))
		if err := copyDir(pre, dir); err != nil {
			return err
		}
		s, ot, err := openInproc(dir, w, e.seed)
		if err != nil {
			return err
		}
		opens = append(opens, ot.open.Seconds())
		replays = append(replays, ot.replay.Seconds())
		colds = append(colds, ms(ot.coldRefresh))
		if k == 0 {
			if err := s.store.Close(); err != nil {
				return err
			}
			continue
		}
		stacks = append(stacks, s)
	}
	untraced, rr := replayPaired(stacks[0], stacks[1], live.reqs, p.rate, p.warm())
	s := stacks[1] // the traced stack
	written := 0
	for _, r := range live.reqs {
		written += w.records(r.op)
	}
	rep.problem(wl.name, untraced.problems...)
	rep.problem(wl.name, rr.problems...)
	for _, st := range stacks {
		if got, want := st.store.Len(), w.preload+written; got != want {
			rep.problem(wl.name, fmt.Sprintf("in-process store holds %d records, want %d", got, want))
		}
	}
	scoreUs := us(scoreCost(s.mech, s.catalog))
	for _, st := range stacks {
		if err := st.store.Close(); err != nil {
			return err
		}
	}

	st := summarizeSpans(rr.spans)
	mean := func(name string) float64 { return us(st[name].meanSelf()) }
	v := map[string]float64{
		"wsxd.decode_us":              mean("wsxd.decode"),
		"wsxd.encode_us":              mean("wsxd.encode"),
		"wsxd.cpu_us_per_req":         us(live.cpu) / float64(live.measured),
		"wsxd.gc_cycles":              float64(live.gcCycles),
		"wsxd.gc_pause_ms":            live.gcMs,
		"resilience.admit_us":         mean("resilience.admit"),
		"resilience.breaker_us":       mean("resilience.breaker"),
		"resilience.bulkhead_wait_us": mean("resilience.bulkhead"),
		"core.validate_us":            mean("core.validate"),
		"registry.compactions":        float64(live.snaps),
		"registry.write_amp":          float64(live.writeBytes) / float64(live.payload),
		"registry.open_s":             median(opens),
		"driver.lag_ms":               live.lag.meanMs(),
		"driver.queue_wait_ms":        live.qwait.meanMs(),
	}
	if n := s.ranks.Load(); n > 0 {
		v["core.rank_rebuild_us"] = mean("core.rank_rebuild")
		v["core.rank_rebuild_p99_us"] = st["core.rank_rebuild"].p99Us()
		v["core.rank_rebuild_frac"] = float64(s.rebuilds.Load()) / float64(n)
		v["core.rank_stale_frac"] = float64(s.stale.Load()) / float64(n)
	}
	if st["registry.submit"] != nil {
		v["registry.submit_us"] = mean("registry.submit")
		v["registry.submit_p99_us"] = st["registry.submit"].p99Us()
	}
	if st["registry.submit_batch"] != nil {
		v["registry.submit_batch_ms"] = mean("registry.submit_batch") / 1000
	}
	if len(rr.compactions) > 0 {
		var fs []float64
		for _, d := range rr.compactions {
			fs = append(fs, ms(d))
		}
		v["registry.compact_ms"] = mean64(fs)
		v["registry.compact_max_ms"] = maxOf(fs)
	}
	switch w.mech {
	case "beta":
		v["beta.submit_us"] = mean("beta.submit")
		v["beta.score_us"] = scoreUs
		v["beta.replay_s"] = median(replays)
	case "eigentrust":
		v["eigentrust.submit_us"] = mean("eigentrust.submit") / float64(w.batch)
		v["eigentrust.refresh_ms"] = mean("eigentrust.refresh") / 1000
		if n := s.computes.Load(); n > 0 {
			v["eigentrust.iterations"] = float64(s.iters.Load()) / float64(n)
			v["eigentrust.warm_frac"] = float64(s.warm.Load()) / float64(n)
		}
		v["eigentrust.replay_s"] = median(replays)
		v["eigentrust.cold_refresh_ms"] = median(colds)
	}

	// Residual: the live mean of each op minus the time its in-process
	// layers account for. Over ops, it is weighted by live request count.
	// Overhead: each request's traced time over its untraced time, median
	// over the window's requests, less one; a request's two times can
	// differ by a quarter or more either way, so the median needs every
	// request the window has. Per op it is printed beside what the
	// spans should cost by the tracer's own timed cost per span: a traced
	// request reads the clock at every span boundary except its own start
	// and end, which untraced requests read too, so spans-1 times.
	spansOf := map[string]int{}
	rootOf := map[int64]string{}
	for _, sp := range rr.spans {
		if sp.Parent == 0 {
			rootOf[sp.Req] = sp.Name.String()
		}
	}
	for _, sp := range rr.spans {
		spansOf[rootOf[sp.Req]]++
	}
	cost := spanCost()
	var resid, weight float64
	for o := op(0); o < numOps; o++ {
		if w.limits[o].ms == 0 {
			continue
		}
		root := st["wsxd."+o.String()]
		if root == nil || root.n == 0 {
			return fmt.Errorf("no traced %s requests", o)
		}
		layers := ms(root.children / time.Duration(root.n))
		e2e := live.ops[o].meanMs()
		n := float64(len(live.ops[o].ok))
		resid += (e2e - layers) * n
		weight += n
		fmt.Printf("%s trace %s: e2e mean %.4fms = layers %.4fms + residual %.4fms (n=%d live, %d traced)\n",
			wl.name, o, e2e, layers, e2e-layers, len(live.ops[o].ok), root.n)
		isOp := func(i int) bool { return live.reqs[i].op == o }
		frac, se, pairs := pairedOverhead(untraced.took, rr.took, isOp)
		if pairs == 0 {
			return fmt.Errorf("no %s request completed in both replays", o)
		}
		base := medianDur(timesOf(untraced.took, isOp))
		perReq := float64(spansOf["wsxd."+o.String()]) / float64(root.n)
		fmt.Printf("%s trace %s overhead: traced/untraced %+.4f ± %.4f, median of %d requests (by span cost: %.1f spans x %s = %.4f of the untraced median %.1fus)\n",
			wl.name, o, frac, se, pairs, perReq, cost, (perReq-1)*float64(cost)/base, base/1e3)
	}
	v["wsxd.residual_ms"] = resid / weight
	frac, se, pairs := pairedOverhead(untraced.took, rr.took, func(int) bool { return true })
	v["trace.overhead_frac"] = frac
	fmt.Printf("%s trace overhead: traced/untraced %+.4f ± %.4f (one standard error), median of %d requests\n", wl.name, frac, se, pairs)
	fmt.Printf("%s trace compactions: %d live, %d in process\n", wl.name, live.snaps, len(rr.compactions))
	rep.spans = append(rep.spans, rr.spans...)
	return rep.layers(wl.name, v)
}

// scoreCost times mech.Score over the catalog, per call.
func scoreCost(mech core.Mechanism, catalog []core.Candidate) time.Duration {
	const calls = 20000
	clock := simclock.Wall()
	start := clock.Now()
	for i := 0; i < calls; i++ {
		mech.Score(core.Query{Subject: catalog[i%len(catalog)].Service, Context: wsxdCategory, Facet: core.FacetOverall})
	}
	return clock.Now().Sub(start) / calls
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mean64(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// timesOf returns the recorded request times whose index keep selects.
func timesOf(took []time.Duration, keep func(i int) bool) []time.Duration {
	var out []time.Duration
	for i, d := range took {
		if d > 0 && keep(i) {
			out = append(out, d)
		}
	}
	return out
}

func medianDur(ds []time.Duration) float64 {
	fs := make([]float64, len(ds))
	for i, d := range ds {
		fs[i] = float64(d)
	}
	return median(fs)
}

// spanCost times the tracer itself: what recording one span costs,
// clock read included.
func spanCost() time.Duration {
	const n = 100000
	clock := simclock.Wall()
	t := newTracerAt(clock.Now(), 0, n+1)
	start := clock.Now()
	m := t.begin(0, 0, snCalibrate)
	for i := 0; i < n; i++ {
		m = t.next(m, snCalibrate)
	}
	t.end(m)
	return clock.Now().Sub(start) / n
}
