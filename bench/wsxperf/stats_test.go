package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    uint64
		q    float64
		want bool
	}{
		{1000, 99, true}, // rank 990: 10 beyond
		{999, 99, false}, // rank 990: 9 beyond
		{200, 95, true},  // rank 190: 10 beyond
		{199, 95, false}, // rank 190: 9 beyond
		{20, 50, true},   // rank 10: 10 beyond
		{19, 50, false},  // rank 10: 9 beyond
		{10000, 99.9, true},
		{0, 50, false},
	}
	for _, c := range cases {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, p%g) = %v, want %v (beyond %d)", c.n, c.q, got, c.want, beyond(c.n, c.q))
		}
	}
}

func latenciesMs(failed uint64, ms ...float64) *latencies {
	l := &latencies{failed: failed}
	for _, m := range ms {
		l.add(time.Duration(m * float64(time.Millisecond)))
	}
	return l
}

func TestPercentileIsNearestRank(t *testing.T) {
	var vals []float64
	for i := 100; i >= 1; i-- {
		vals = append(vals, float64(i))
	}
	l := latenciesMs(0, vals...)
	for q, want := range map[float64]float64{50: 50, 99: 99, 100: 100, 1: 1, 0: 1} {
		if got := l.pctMs(q); got != want {
			t.Errorf("p%g = %g, want %g", q, got, want)
		}
	}
	if got := l.meanMs(); got != 50.5 {
		t.Errorf("mean = %g, want 50.5", got)
	}
}

func TestFailuresRankAboveEveryLatency(t *testing.T) {
	// 98 fast successes and 2 failures: p98 is still a success, p99 is
	// a failure and so over any limit.
	var fast []float64
	for i := 0; i < 98; i++ {
		fast = append(fast, 1)
	}
	l := latenciesMs(2, fast...)
	if got := l.pctMs(98); got != 1 {
		t.Errorf("p98 = %g, want 1", got)
	}
	if got := l.pctMs(99); !math.IsInf(got, 1) {
		t.Errorf("p99 = %g, want +Inf", got)
	}
	if got := (&latencies{}).pctMs(50); !math.IsInf(got, 1) {
		t.Errorf("p50 of nothing = %g, want +Inf", got)
	}

	r := &rungResult{rate: 100}
	r.ops[opSubmit] = *l
	limits := [numOps]limit{opSubmit: {99, 1000}}
	if ok, why := r.verdict(limits); ok {
		t.Errorf("rung with failures beyond p99 passed: %s", why)
	}
}

// rung builds a rung whose submits all took lat ms.
func rung(rate, lat float64, n int) *rungResult {
	r := &rungResult{rate: rate}
	for i := 0; i < n; i++ {
		r.ops[opSubmit].add(time.Duration(lat * float64(time.Millisecond)))
	}
	return r
}

func TestKnee(t *testing.T) {
	limits := [numOps]limit{opSubmit: {99, 100}}
	fast := func(rate float64) *rungResult { return rung(rate, 5, 2000) }

	if got := knee([]*rungResult{rung(500, 150, 2000), rung(1000, 300, 2000)}, limits); got != 0 {
		t.Errorf("no rung passes: knee %g, want 0", got)
	}
	if got := knee([]*rungResult{fast(500), fast(1000), rung(2000, 150, 2000)}, limits); got != 1000 {
		t.Errorf("knee %g, want 1000", got)
	}

	dropped := fast(2000)
	dropped.dropped = 1
	if ok, why := dropped.verdict(limits); ok || why != "1 dropped" {
		t.Errorf("a drop must fail the rung: %v %q", ok, why)
	}
	if got := knee([]*rungResult{fast(1000), dropped}, limits); got != 1000 {
		t.Errorf("knee %g with the 2000/s rung dropping, want 1000", got)
	}

	late := fast(2000)
	late.lagEnd = 101 * time.Millisecond
	if ok, _ := late.verdict(limits); ok {
		t.Error("a generator 101ms late must fail the rung")
	}
	late.lagEnd = 100 * time.Millisecond
	if ok, why := late.verdict(limits); !ok {
		t.Errorf("a generator 100ms late passes: %s", why)
	}

	failing := fast(2000)
	failing.ops[opSubmit].failed = 3 // 3 of 2003 > 0.1%
	if ok, _ := failing.verdict(limits); ok {
		t.Error("fail_frac above 0.001 must fail the rung")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Start: 25, End: 35},  // grandchild
		{ID: 6, Start: 200, End: 210},           // a second root
	}
	got := selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 20, 3: 20, 4: 30, 5: 10, 6: 10}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, got[id], w)
		}
	}
}

func TestPairedOverhead(t *testing.T) {
	us := func(v ...float64) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x * float64(time.Microsecond))
		}
		return out
	}
	// Requests 0 and 5 were not timed in one replay (warmup, failure);
	// request 3 carried a compaction in both. Every timed pair reads 2%
	// slower traced except request 4, whose traced run hit a stall.
	base := us(10, 20, 1000, 50000, 30, 40)
	traced := us(0, 20.4, 1020, 51000, 300, 0)
	all := func(int) bool { return true }
	frac, se, n := pairedOverhead(base, traced, all)
	if n != 4 || math.Abs(frac-0.02) > 1e-9 || se != 0 {
		t.Errorf("pairedOverhead = %g ± %g over %d, want 0.02 ± 0 over 4", frac, se, n)
	}
	even := func(i int) bool { return i%2 == 0 }
	if frac, _, n := pairedOverhead(base, traced, even); n != 2 || math.Abs(frac-((1.02+10)/2-1)) > 1e-9 {
		t.Errorf("pairedOverhead of even requests = %g over %d, want 4.51 over 2", frac, n)
	}
	if frac, _, n := pairedOverhead(base, traced, func(int) bool { return false }); n != 0 || !math.IsNaN(frac) {
		t.Errorf("pairedOverhead of no requests = %g over %d, want NaN over 0", frac, n)
	}

	// Ratios 1.0 to 1.4: median 1.2, interquartile range 1.1 to 1.3.
	frac, se, n = pairedOverhead(us(100, 100, 100, 100, 100), us(110, 130, 100, 140, 120), all)
	if want := 1.253 * 0.2 / 1.349 / math.Sqrt(5); n != 5 || math.Abs(frac-0.2) > 1e-9 || math.Abs(se-want) > 1e-9 {
		t.Errorf("pairedOverhead = %g ± %g over %d, want 0.2 ± %g over 5", frac, se, n, want)
	}
}

func TestCompactionDetection(t *testing.T) {
	a := fileIdentity{ino: 7, size: 100, mtime: 1}
	b := fileIdentity{ino: 9, size: 180, mtime: 2}
	c := fileIdentity{ino: 7, size: 260, mtime: 3} // inode reused
	cases := []struct {
		obs  []fileIdentity
		want int
	}{
		{nil, 0},
		{[]fileIdentity{a, a, a}, 0},
		{[]fileIdentity{a, b, b, c}, 2},
		{[]fileIdentity{{}, a}, 1}, // first snapshot of an empty store
		{[]fileIdentity{a, {}}, 0}, // disappearing is not a compaction
		{[]fileIdentity{a, {}, b}, 1},
	}
	for _, c := range cases {
		if got := replacements(c.obs); got != c.want {
			t.Errorf("replacements(%v) = %d, want %d", c.obs, got, c.want)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	data := []byte("Name:\twsxd\nVmPeak:\t 1262372 kB\nVmHWM:\t   17408 kB\nVmRSS:\t   16384 kB\n")
	if got, err := parseVmHWM(data); err != nil || got != 17 {
		t.Errorf("parseVmHWM = %g, %v; want 17 MB", got, err)
	}
	// An exited process that has not been reaped has no memory lines.
	if _, err := parseVmHWM([]byte("Name:\twsxd\nState:\tZ (zombie)\n")); err == nil {
		t.Error("a missing VmHWM must be an error")
	}
	if _, err := parseVmHWM([]byte("VmHWM:\t 12 MB\n")); err == nil {
		t.Error("an unexpected unit must be an error")
	}
}

func TestParseProcIO(t *testing.T) {
	data := []byte("rchar: 3980\nwchar: 12345\nsyscr: 9\nsyscw: 4\nread_bytes: 0\nwrite_bytes: 8192\ncancelled_write_bytes: 0\n")
	if got, err := parseWriteBytes(data); err != nil || got != 8192 {
		t.Errorf("parseWriteBytes = %d, %v; want 8192", got, err)
	}
	if _, err := parseWriteBytes([]byte("rchar: 1\n")); err == nil {
		t.Error("a missing write_bytes must be an error")
	}
	if _, err := parseWriteBytes([]byte("write_bytes: x\n")); err == nil {
		t.Error("a malformed value must be an error")
	}
}

func TestParseProcStatCPU(t *testing.T) {
	// The command name may hold spaces and parentheses.
	data := []byte("4242 (wsx d (x)) S 1 4242 4242 0 -1 4194560 1208 0 0 0 150 25 0 0 20 0 3 0 123 0 0\n")
	cpu, err := parseProcStatCPU(data)
	if err != nil || cpu != 1750*time.Millisecond {
		t.Errorf("parseProcStatCPU = %v, %v; want 1.75s", cpu, err)
	}
	if _, err := parseProcStatCPU([]byte("4242 (x) S 1 2")); err == nil {
		t.Error("a short stat line must be an error")
	}
}

func TestParseGCTrace(t *testing.T) {
	pause, ok := parseGCTrace("gc 7 @1.234s 2%: 0.015+1.1+0.021 ms clock, 0.015+0.30/0.5/0+0.021 ms cpu, 4->4->2 MB, 5 MB goal, 0 MB stacks, 0 MB globals, 1 P")
	if !ok || math.Abs(pause-0.036) > 1e-12 {
		t.Errorf("pause = %g, %v; want 0.036", pause, ok)
	}
	for _, line := range []string{"wsxd: listening on 127.0.0.1:1", "gc 1 @0.1s 0%: bad", "gc 2 @0.1s 1%: 1+2 ms clock"} {
		if _, ok := parseGCTrace(line); ok {
			t.Errorf("parsed %q", line)
		}
	}
}

func TestParseCPUStat(t *testing.T) {
	st, err := parseCPUStat([]byte("cpu  100 0 20 700 10 0 5 15 0 0\ncpu0 50 0 10 350 5 0 2 7 0 0\n"))
	if err != nil || st.total != 850 || st.steal != 15 {
		t.Errorf("parseCPUStat = %+v, %v; want total 850, steal 15", st, err)
	}
	if _, err := parseCPUStat([]byte("intr 1 2 3\n")); err == nil {
		t.Error("a missing cpu line must be an error")
	}
}
