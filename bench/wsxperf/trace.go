package main

import (
	"encoding/json"
	"time"

	"wstrust/internal/experiment"
	"wstrust/internal/simclock"
)

// tracer records spans for one goroutine; a nil tracer records nothing
// and reads no clock, so untraced requests run the same code at no
// tracing cost. Span IDs are unique across the tracers of a run because
// each tracer numbers from its own base. Consecutive sibling spans share
// one clock read (next), which halves what tracing a request costs.
type tracer struct {
	clock  simclock.Clock
	origin time.Time // time zero of every tracer of the run
	seq    int64
	list   []span
}

// mark is an open span.
type mark struct {
	id, parent, req int64
	start           int64 // ns since the tracer's origin
	name            spanName
}

// spanName is an interned span name. Spans store the index, so that span
// lists hold no pointers for the garbage collector to scan.
type spanName uint16

var (
	spanNames []string
	spanIndex = map[string]spanName{}
)

// intern returns name's index, adding it on first use. It is not safe for
// concurrent use: names are interned before any tracer runs.
func intern(name string) spanName {
	if n, ok := spanIndex[name]; ok {
		return n
	}
	n := spanName(len(spanNames))
	spanNames = append(spanNames, name)
	spanIndex[name] = n
	return n
}

func (n spanName) String() string { return spanNames[n] }

func (n spanName) MarshalJSON() ([]byte, error) { return json.Marshal(spanNames[n]) }

func newTracer() *tracer { return newTracerAt(simclock.Wall().Now(), 0, 0) }

// newTracerAt returns the tracer of worker k of a run that started at
// origin, with room for capHint spans.
func newTracerAt(origin time.Time, k int64, capHint int) *tracer {
	return &tracer{clock: simclock.Wall(), origin: origin, seq: k << 40, list: make([]span, 0, capHint)}
}

// begin opens a span.
func (t *tracer) begin(parent, req int64, name spanName) mark {
	if t == nil {
		return mark{}
	}
	return t.beginAt(t.clock.Now(), parent, req, name)
}

// beginAt opens a span at a time the caller has already read.
func (t *tracer) beginAt(at time.Time, parent, req int64, name spanName) mark {
	if t == nil {
		return mark{}
	}
	t.seq++
	return mark{id: t.seq, parent: parent, req: req, start: at.Sub(t.origin).Nanoseconds(), name: name}
}

// firstChild opens a child span starting with its parent.
func (t *tracer) firstChild(parent mark, name spanName) mark {
	if t == nil {
		return mark{}
	}
	t.seq++
	return mark{id: t.seq, parent: parent.id, req: parent.req, start: parent.start, name: name}
}

// next closes m and opens its next sibling at the same instant.
func (t *tracer) next(m mark, name spanName) mark {
	if t == nil {
		return mark{}
	}
	now := t.clock.Now().Sub(t.origin).Nanoseconds()
	t.record(m, now)
	t.seq++
	return mark{id: t.seq, parent: m.parent, req: m.req, start: now, name: name}
}

// end closes m and returns its duration; 0 on a nil tracer.
func (t *tracer) end(m mark) time.Duration {
	if t == nil {
		return 0
	}
	now := t.clock.Now().Sub(t.origin).Nanoseconds()
	t.record(m, now)
	return time.Duration(now - m.start)
}

func (t *tracer) endAt(m mark, at time.Time) {
	if t == nil {
		return
	}
	t.record(m, at.Sub(t.origin).Nanoseconds())
}

func (t *tracer) record(m mark, end int64) {
	t.list = append(t.list, span{ID: m.id, Parent: m.parent, Req: m.req, Name: m.name, Start: m.start, End: end})
}

func (t *tracer) spans() []span { return t.list }

// Names of the serving path's spans. A request's root span is named
// after its op; the layers below it after the layer and call.
var (
	rootNames = func() (n [numOps]spanName) {
		for o := range n {
			n[o] = intern("wsxd." + op(o).String())
		}
		return n
	}()
	snAdmit       = intern("resilience.admit")
	snDecode      = intern("wsxd.decode")
	snValidate    = intern("core.validate")
	snBreaker     = intern("resilience.breaker")
	snSubmit      = intern("registry.submit")
	snSubmitBatch = intern("registry.submit_batch")
	snBulkhead    = intern("resilience.bulkhead")
	snRebuild     = intern("core.rank_rebuild")
	snEncode      = intern("wsxd.encode")
	snCalibrate   = intern("calibrate")
)

// experimentIDs are the suite's runner IDs, in suite order.
var experimentIDs = func() []string {
	var ids []string
	for _, r := range experiment.All() {
		ids = append(ids, r.ID)
	}
	return ids
}()

// layerNames lists the per-layer metrics with their units, in report
// order. Every traced run reports all of them; a layer the workload does
// not reach reads 0.
var layerNames = func() [][2]string {
	l := [][2]string{
		{"wsxd.decode_us", "us"}, {"wsxd.encode_us", "us"}, {"wsxd.residual_ms", "ms"},
		{"wsxd.cpu_us_per_req", "us"}, {"wsxd.gc_cycles", "count"}, {"wsxd.gc_pause_ms", "ms"},
		{"resilience.admit_us", "us"}, {"resilience.breaker_us", "us"}, {"resilience.bulkhead_wait_us", "us"},
		{"core.validate_us", "us"}, {"core.rank_rebuild_us", "us"}, {"core.rank_rebuild_p99_us", "us"},
		{"core.rank_rebuild_frac", "ratio"}, {"core.rank_stale_frac", "ratio"},
		{"registry.submit_us", "us"}, {"registry.submit_p99_us", "us"}, {"registry.compactions", "count"},
		{"registry.compact_ms", "ms"}, {"registry.compact_max_ms", "ms"}, {"registry.write_amp", "ratio"},
		{"registry.submit_batch_ms", "ms"}, {"registry.open_s", "s"},
		{"beta.submit_us", "us"}, {"beta.score_us", "us"}, {"beta.replay_s", "s"},
		{"eigentrust.submit_us", "us"}, {"eigentrust.refresh_ms", "ms"}, {"eigentrust.iterations", "count"},
		{"eigentrust.warm_frac", "ratio"}, {"eigentrust.replay_s", "s"}, {"eigentrust.cold_refresh_ms", "ms"},
	}
	for _, id := range experimentIDs {
		l = append(l, [2]string{"experiment." + id + "_s", "s"})
	}
	return append(l,
		[2]string{"experiment.critical_path_s", "s"}, [2]string{"experiment.sum_s", "s"},
		[2]string{"scenario.parse_ms", "ms"}, [2]string{"scenario.build_s", "s"}, [2]string{"scenario.run_s", "s"},
		[2]string{"driver.lag_ms", "ms"}, [2]string{"driver.queue_wait_ms", "ms"},
		[2]string{"trace.overhead_frac", "ratio"},
	)
}()
