package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"wstrust/internal/core"
	"wstrust/internal/registry"
	"wstrust/internal/simclock"
)

// preloadBatch is the SubmitBatch size used to write the preload.
const preloadBatch = 4096

// writePreload fills a fresh store with the workload's preload: all but
// the last walRecords compacted into the snapshot, those left in the WAL.
// Record i comes from consumer i mod consumers, and the first records
// rate every service once, so the whole roster is known before the load
// starts.
func writePreload(dir string, w *serveWorkload, pop *population, seed int64, walRecords int) error {
	store, _, err := registry.Open(dir, registry.WALOptions{SyncEvery: math.MaxInt32})
	if err != nil {
		return err
	}
	rng := simclock.Stream(seed, "wsxperf/preload")
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	batch := make([]core.Feedback, 0, preloadBatch)
	for i := 0; i < w.preload; i++ {
		r := pop.rating(rng)
		r.Consumer = pop.consumers[i%len(pop.consumers)]
		if i < len(pop.services) {
			r.Service, r.Provider = pop.services[i], pop.providers[i]
		}
		batch = append(batch, feedbackOf(r, base.Add(time.Duration(i)*time.Millisecond)))
		compactHere := i == w.preload-walRecords-1
		if len(batch) == preloadBatch || compactHere || i == w.preload-1 {
			if err := store.SubmitBatch(batch); err != nil {
				return closeAfter(store, err)
			}
			batch = batch[:0]
		}
		if compactHere {
			if err := store.Snapshot(); err != nil {
				return closeAfter(store, err)
			}
		}
	}
	return store.Close()
}

func closeAfter(store *registry.Store, err error) error {
	if cerr := store.Close(); cerr != nil {
		return fmt.Errorf("%w (close: %v)", err, cerr)
	}
	return err
}

// feedbackOf builds the record wsxd's handlers build from a rating.
func feedbackOf(r rating, at time.Time) core.Feedback {
	return core.Feedback{
		Consumer: core.ConsumerID(r.Consumer),
		Service:  core.ServiceID(r.Service),
		Provider: core.ProviderID(r.Provider),
		Context:  core.Context(r.Context),
		Ratings:  map[core.Facet]float64{core.FacetOverall: r.Rating},
		At:       at,
	}
}

// storeLen opens a data directory the way wsxd's recovery does and
// returns how many records it holds.
func storeLen(dir string) (int, error) {
	store, _, err := registry.Open(dir, registry.WALOptions{})
	if err != nil {
		return 0, err
	}
	n := store.Len()
	return n, store.Close()
}

// plan is the timing of one rung.
type plan struct {
	rate         float64
	warmup, span time.Duration // span is the measured window
}

func (p plan) count() int { return int(p.rate * (p.warmup + p.span).Seconds()) }
func (p plan) warm() int  { return int(p.rate * p.warmup.Seconds()) }

// refPlans are the reference runs: the measuring time split evenly,
// each window after half a second of warmup.
func (e *env) refPlans(w *serveWorkload) []plan {
	if e.smoke {
		return []plan{{rate: w.ref, warmup: 200 * time.Millisecond, span: time.Second}}
	}
	p := plan{rate: w.ref, warmup: 500 * time.Millisecond, span: time.Duration(e.seconds / float64(w.refRuns) * float64(time.Second))}
	out := make([]plan, w.refRuns)
	for k := range out {
		out[k] = p
	}
	return out
}

// rungPlan is the timing of the ladder rung at rate: 2 s of warmup and
// the workload's window, or a fraction of a second in a smoke run.
func (e *env) rungPlan(w *serveWorkload, rate float64) plan {
	if e.smoke {
		return plan{rate: rate, warmup: 100 * time.Millisecond, span: 400 * time.Millisecond}
	}
	return plan{rate: rate, warmup: 2 * time.Second, span: w.ladderSpan(rate)}
}

// rungRun is one rung measured against a live wsxd.
type rungRun struct {
	plan
	*loadResult
	reqs       []request
	setup      time.Duration
	rssMB      float64       // wsxd peak resident set while serving
	cpu        time.Duration // wsxd CPU time over the window
	writeBytes uint64        // wsxd writes to storage over the window
	gcCycles   int
	gcMs       float64
	snaps      int // snapshot.wsx replacements seen during the window
}

// rung boots wsxd on a fresh copy of the preload, offers the rung, drains
// the daemon, and checks that the store holds the preload plus every
// acknowledged record. A traced rung runs the daemon with its GC trace on.
func (e *env) rung(w *serveWorkload, pop *population, preload string, p plan, traced bool) (*rungRun, error) {
	reqs, err := schedule(w, pop, e.seed, p)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(e.work, "rung")
	if err := copyDir(preload, dir); err != nil {
		return nil, err
	}
	defer func() {
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintln(os.Stderr, "wsxperf:", err)
		}
	}()
	d, err := startDaemon(e.wsxd, dir, w, e.seed, traced)
	if err != nil {
		return nil, err
	}
	out := &rungRun{plan: p, setup: d.setup, reqs: reqs}
	// A traced run also watches the daemon from outside over the window;
	// an end-to-end run leaves the driver's one core to the load.
	var cpu0 time.Duration
	var wb0 uint64
	var statErr error
	watch := newSnapshotWatch(filepath.Join(dir, "snapshot.wsx"))
	var onWindow func()
	if traced {
		onWindow = func() {
			cpu0, wb0, statErr = d.procStat()
			watch.start()
		}
	}
	out.loadResult = offer(d.base, w, reqs, p.rate, p.warm(), onWindow)
	if traced {
		snaps, werr := watch.stop()
		cpu1, wb1, err1 := d.procStat()
		if err := firstErr(statErr, err1, werr); err != nil {
			d.kill()
			return nil, err
		}
		out.snaps, out.cpu, out.writeBytes = snaps, cpu1-cpu0, wb1-wb0
		out.gcCycles, out.gcMs = d.gcBetween(out.windowStart, out.windowEnd)
	}
	if out.rssMB, err = d.peakRSS(); err != nil {
		d.kill()
		return nil, err
	}
	if err := d.drain(); err != nil {
		return nil, err
	}
	n, err := storeLen(dir)
	if err != nil {
		return nil, err
	}
	if want := w.preload + out.acked; n != want {
		out.problems = append(out.problems, fmt.Sprintf("store holds %d records after drain, want %d preloaded + %d acknowledged", n, w.preload, out.acked))
	}
	if out.coldComputes > 1 {
		out.problems = append(out.problems, fmt.Sprintf("%d /compute-with-stats answers without warmStart, want at most the first", out.coldComputes))
	}
	return out, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// snapshotWatch polls snapshot.wsx while a window runs and counts how
// often compaction replaced it.
type snapshotWatch struct {
	path    string
	started bool
	stopc   chan struct{}
	done    chan struct{}
	obs     []fileIdentity
	err     error
}

func newSnapshotWatch(path string) *snapshotWatch {
	return &snapshotWatch{path: path, stopc: make(chan struct{}), done: make(chan struct{})}
}

func (s *snapshotWatch) start() {
	s.started = true
	go func() {
		defer close(s.done)
		for {
			id, err := identityOf(s.path)
			if err != nil {
				s.err = err
				return
			}
			if len(s.obs) == 0 || id != s.obs[len(s.obs)-1] {
				s.obs = append(s.obs, id)
			}
			select {
			case <-s.stopc:
				return
			default:
			}
			simclock.SleepWall(5 * time.Millisecond)
		}
	}()
}

// stop ends the watch and returns the replacements it saw.
func (s *snapshotWatch) stop() (int, error) {
	if !s.started {
		return 0, nil
	}
	close(s.stopc)
	<-s.done
	return replacements(s.obs), s.err
}

// preload writes the workload's preload into the run's work directory.
func (e *env) preload(name string, w *serveWorkload, pop *population) (string, error) {
	dir := filepath.Join(e.work, "preload-"+name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, writePreload(dir, w, pop, e.seed, e.walRecords(w))
}

// walRecords is how many preload records stay in the WAL: on a
// stallPerRun workload, enough that the first compaction falls in the
// middle of each reference window.
func (e *env) walRecords(w *serveWorkload) int {
	if !w.stallPerRun {
		return 0
	}
	p := e.refPlans(w)[0]
	early := int(p.rate * w.primaryShare * (p.warmup + p.span/2).Seconds())
	return min(max(compactEvery-early, 0), w.preload)
}

// bootOnly boots wsxd on a fresh copy of the preload and drains it at
// once, returning its set-up time.
func (e *env) bootOnly(w *serveWorkload, preload string) (time.Duration, error) {
	dir := filepath.Join(e.work, "boot")
	if err := copyDir(preload, dir); err != nil {
		return 0, err
	}
	defer func() {
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintln(os.Stderr, "wsxperf:", err)
		}
	}()
	d, err := startDaemon(e.wsxd, dir, w, e.seed, false)
	if err != nil {
		return 0, err
	}
	if err := d.drain(); err != nil {
		return 0, err
	}
	return d.setup, nil
}

// serveE2E measures a serving workload's end-to-end metrics over the
// reference runs and, with the ladder on, searches the knee.
func (e *env) serveE2E(wl *benchWorkload, rep *report) error {
	w := e.shape(wl.serve)
	pop := newPopulation(w, e.seed)
	pre, err := e.preload(wl.name, w, pop)
	if err != nil {
		return err
	}
	var refs []*rungRun
	for k, p := range e.refPlans(w) {
		r, err := e.rung(w, pop, pre, p, false)
		if err != nil {
			return err
		}
		rep.attempted += r.attempted()
		rep.failed += r.failed()
		rep.problem(wl.name, r.problems...)
		refs = append(refs, r)
		fmt.Printf("%s reference run %d at %g/s for %s: boot %s %s\n", wl.name, k+1, p.rate, p.span, r.setup.Round(time.Microsecond), r.summary(w))
	}

	var setups, rss []float64
	for _, r := range refs {
		setups = append(setups, r.setup.Seconds())
		rss = append(rss, r.rssMB)
	}
	for k := 0; k < w.extraBoots; k++ {
		d, err := e.bootOnly(w, pre)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	of := fmt.Sprintf("median of %d runs at %g/s", len(refs), w.ref)
	rep.add(wl.name, "setup_s", median(setups), "s", fmt.Sprintf("exec to /readyz, median of %d boots", len(setups)))
	rep.add(wl.name, "rss_peak_mb", median(rss), "MB", "wsxd VmHWM after the window, "+of)
	for _, m := range []struct {
		name string
		op   op
	}{{"primary_p50_ms", w.primary}, {"secondary_p50_ms", w.secondary}} {
		var vals []float64
		n := uint64(0)
		for _, r := range refs {
			l := &r.ops[m.op]
			if !supported(l.count(), 50) && !e.smoke {
				return fmt.Errorf("%s: %d samples in a run cannot support a median", m.op, l.count())
			}
			vals = append(vals, l.pctMs(50))
			n += l.count()
		}
		rep.add(wl.name, m.name, median(vals), "ms", fmt.Sprintf("%s p50, %s (n=%d)", m.op, of, n))
	}

	// The tail is printed, not reported: its run-to-run spread is wider
	// than any regression bound (README.md). With stallPerRun each window
	// holds one compaction, whose stall is the window's tail, so the
	// median over runs is printed; elsewhere the runs are pooled.
	o, q := w.primary, w.limits[w.primary].pct
	var tails []float64
	pooled := &latencies{}
	for _, r := range refs {
		if w.stallPerRun {
			tails = append(tails, r.ops[o].pctMs(q))
		}
		pooled.merge(&r.ops[o])
	}
	if !w.stallPerRun {
		tails = []float64{pooled.pctMs(q)}
	}
	fmt.Printf("%s primary_tail_ms %.4g ms %s p%g, median of %.4g (n=%d; not in the summary)\n",
		wl.name, median(tails), o, q, tails, pooled.count())

	if e.ladder {
		return e.knee(wl, w, pop, pre, refs, rep)
	}
	return nil
}

// knee offers each ladder rate in its own wsxd and reports the highest
// that passes; the reference rate's rung pools the reference runs.
func (e *env) knee(wl *benchWorkload, w *serveWorkload, pop *population, pre string, refs []*rungRun, rep *report) error {
	var rungs []*rungResult
	for _, rate := range w.ladder {
		if rate == w.ref {
			pooled := &rungResult{rate: rate}
			for _, r := range refs {
				for o := range r.ops {
					pooled.ops[o].merge(&r.ops[o])
				}
				pooled.dropped += r.dropped
				pooled.lagEnd = max(pooled.lagEnd, r.lagEnd)
			}
			rungs = append(rungs, pooled)
			_, why := pooled.verdict(w.limits)
			fmt.Printf("%s rung %g/s (the reference runs): %s -> %s\n", wl.name, rate, pooled.summary(w), why)
			continue
		}
		p := e.rungPlan(w, rate)
		r, err := e.rung(w, pop, pre, p, false)
		if err != nil {
			return err
		}
		rep.attempted += r.attempted()
		rep.failed += r.failed()
		rep.problem(wl.name, r.problems...)
		rungs = append(rungs, &r.rungResult)
		_, why := r.verdict(w.limits)
		fmt.Printf("%s rung %g/s window %s: %s -> %s\n", wl.name, rate, p.span.Round(time.Millisecond), r.summary(w), why)
	}
	fmt.Printf("%s knee_rps %g 1/s (highest of %v that passes)\n", wl.name, knee(rungs, w.limits), w.ladder)
	return nil
}

// summary renders a rung's latencies at its ops' percentiles.
func (r *rungResult) summary(w *serveWorkload) string {
	var b strings.Builder
	for o, lim := range w.limits {
		if lim.ms == 0 {
			continue
		}
		l := &r.ops[o]
		fmt.Fprintf(&b, "%s p50 %.3fms p%g %.3fms (n=%d) ", op(o), l.pctMs(50), lim.pct, l.pctMs(lim.pct), l.count())
	}
	fmt.Fprintf(&b, "fail_frac %.4f dropped %d lag %s", r.failFrac(), r.dropped, r.lagEnd.Round(time.Microsecond))
	return b.String()
}

// smokeConsumers and smokePreload shrink the serving workloads for -smoke.
const (
	smokeConsumers = 256
	smokePreload   = 1024
)

// shape returns the workload as this run offers it: a smoke run shrinks
// the roster and the preload, keeping the preload a superset of the
// roster, and boots at most once more for set-up time.
func (e *env) shape(w *serveWorkload) *serveWorkload {
	if !e.smoke {
		return w
	}
	s := *w
	s.consumers = min(s.consumers, smokeConsumers)
	s.extraBoots = min(s.extraBoots, 1)
	if s.preload > 0 {
		s.preload = smokePreload
	}
	return &s
}
