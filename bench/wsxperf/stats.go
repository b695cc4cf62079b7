package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: with fewer, a single outlier decides the value.
const minBeyond = 10

// nearestRank is the 1-based rank of the q-th percentile of n samples.
// q·n/100 is exact in decimal but not always in binary (99.9·10000 comes
// out as 9990.000000000002); the tolerance keeps the rank from rounding up.
func nearestRank(n uint64, q float64) uint64 {
	return max(uint64(math.Ceil(q*float64(n)/100-1e-9)), 1)
}

// beyond returns how many of n samples rank above the q-th percentile.
func beyond(n uint64, q float64) uint64 {
	if r := nearestRank(n, q); r < n {
		return n - r
	}
	return 0
}

// supported reports whether n samples support reporting the q-th
// percentile.
func supported(n uint64, q float64) bool { return beyond(n, q) >= minBeyond }

// latencies collects one operation's latencies exactly; the reported
// percentiles move continuously instead of in the 3% steps of a
// log-linear histogram. Failed requests (transport errors, non-2xx
// answers, drops) are counted apart and rank above every latency, so
// they are over any limit.
type latencies struct {
	ok     []time.Duration
	failed uint64
	sorted bool
}

func (l *latencies) add(d time.Duration) {
	l.ok = append(l.ok, d)
	l.sorted = false
}

func (l *latencies) count() uint64 { return uint64(len(l.ok)) + l.failed }

func (l *latencies) merge(o *latencies) {
	l.ok = append(l.ok, o.ok...)
	l.failed += o.failed
	l.sorted = false
}

// pctMs returns the q-th percentile (nearest rank) in milliseconds over
// successes and failures together: +Inf when the rank falls among the
// failures or nothing was recorded.
func (l *latencies) pctMs(q float64) float64 {
	n := l.count()
	if n == 0 {
		return math.Inf(1)
	}
	rank := nearestRank(n, q)
	if rank > uint64(len(l.ok)) {
		return math.Inf(1)
	}
	if !l.sorted {
		slices.Sort(l.ok)
		l.sorted = true
	}
	return ms(l.ok[rank-1])
}

// meanMs is the mean latency of the successful requests.
func (l *latencies) meanMs() float64 {
	if len(l.ok) == 0 {
		return math.NaN()
	}
	var sum time.Duration
	for _, d := range l.ok {
		sum += d
	}
	return ms(sum) / float64(len(l.ok))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// limit is a latency ceiling on one percentile of one operation.
type limit struct {
	pct float64
	ms  float64
}

// Rung pass rules besides the latency limits.
const (
	maxFailFrac = 0.001
	maxLagEnd   = 100 * time.Millisecond
)

// rungResult is what one rung of a ladder measured.
type rungResult struct {
	rate    float64
	ops     [numOps]latencies
	dropped uint64        // arrivals the bounded queue could not take
	lagEnd  time.Duration // how late the generator ran at the end of the window
}

func (r *rungResult) attempted() uint64 {
	var n uint64
	for i := range r.ops {
		n += r.ops[i].count()
	}
	return n + r.dropped
}

func (r *rungResult) failed() uint64 {
	var n uint64
	for i := range r.ops {
		n += r.ops[i].failed
	}
	return n + r.dropped
}

func (r *rungResult) failFrac() float64 {
	if a := r.attempted(); a > 0 {
		return float64(r.failed()) / float64(a)
	}
	return 0
}

// verdict applies the pass rules; the reason names the first rule broken.
func (r *rungResult) verdict(limits [numOps]limit) (bool, string) {
	for o, lim := range limits {
		if lim.ms == 0 {
			continue
		}
		if got := r.ops[o].pctMs(lim.pct); got > lim.ms {
			return false, fmt.Sprintf("%s p%g %.1fms > %gms", op(o), lim.pct, got, lim.ms)
		}
	}
	switch {
	case r.dropped > 0:
		return false, fmt.Sprintf("%d dropped", r.dropped)
	case r.failFrac() > maxFailFrac:
		return false, fmt.Sprintf("fail_frac %.4f > %g", r.failFrac(), maxFailFrac)
	case r.lagEnd > maxLagEnd:
		return false, fmt.Sprintf("generator %s late", r.lagEnd.Round(time.Millisecond))
	}
	return true, "pass"
}

// knee is the highest offered rate whose rung passes, or 0 if none does.
func knee(rungs []*rungResult, limits [numOps]limit) float64 {
	best := 0.0
	for _, r := range rungs {
		if ok, _ := r.verdict(limits); ok && r.rate > best {
			best = r.rate
		}
	}
	return best
}

// median of xs (mean of the middle two for an even count); NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// pairedOverhead compares two replays of one schedule request by request:
// the median, over the requests keep selects that both replays timed, of
// the second time over the first, less one; its standard error; and how
// many requests that is. Pairing each request with itself cancels what
// differs between requests (a rebuild, a compaction, a larger batch),
// which would swamp a comparison of two groups of requests. The standard
// error is the median's, 1.253·σ/√n, with σ read off the ratios'
// interquartile range (1.349·σ for a normal spread).
func pairedOverhead(base, other []time.Duration, keep func(i int) bool) (frac, se float64, n int) {
	var ratios []float64
	for i := range base {
		if base[i] > 0 && other[i] > 0 && keep(i) {
			ratios = append(ratios, float64(other[i])/float64(base[i]))
		}
	}
	n = len(ratios)
	if n == 0 {
		return math.NaN(), math.NaN(), 0
	}
	sort.Float64s(ratios)
	iqr := ratios[(3*n-1)/4] - ratios[(n-1)/4]
	return median(ratios) - 1, 1.253 * iqr / 1.349 / math.Sqrt(float64(n)), n
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// span is one timed call in the traced replay. Times are nanoseconds from
// the start of the replay; Parent is the ID of the enclosing span, 0 for
// a request's root.
type span struct {
	ID     int64    `json:"id"`
	Parent int64    `json:"parent"`
	Req    int64    `json:"req"`
	Name   spanName `json:"name"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
}

// selfTimes returns each span's self time by ID: its duration minus the
// part of it its children cover, overlapping children counted once and
// clipped to the parent.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// fileIdentity tells one version of a file from another: compaction
// replaces snapshot.wsx by renaming a fresh file over it, which changes the
// inode and usually size and mtime. The zero value means "absent".
type fileIdentity struct {
	ino   uint64
	size  int64
	mtime int64
}

func identityOf(path string) (fileIdentity, error) {
	fi, err := os.Stat(path)
	if errors.Is(err, fs.ErrNotExist) {
		return fileIdentity{}, nil
	}
	if err != nil {
		return fileIdentity{}, err
	}
	id := fileIdentity{size: fi.Size(), mtime: fi.ModTime().UnixNano()}
	if st, ok := fi.Sys().(*syscall.Stat_t); ok {
		id.ino = st.Ino
	}
	return id, nil
}

// replacements counts the observations at which the file took a new,
// present identity: one per compaction.
func replacements(obs []fileIdentity) int {
	n := 0
	for i := 1; i < len(obs); i++ {
		if obs[i] != obs[i-1] && obs[i] != (fileIdentity{}) {
			n++
		}
	}
	return n
}

// vmHWM reads a live process's peak resident set, in MB. A child's
// rusage Maxrss cannot serve: Linux starts it from the high-water mark of
// the memory image it exec'd from, and Go spawns children with vfork, so
// that image is the driver's own.
func vmHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(data)
}

// parseVmHWM reads the VmHWM line of /proc/<pid>/status.
func parseVmHWM(data []byte) (float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if val, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			f := strings.Fields(val)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("proc status: bad VmHWM %q", val)
			}
			kb, err := strconv.ParseUint(f[0], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("proc status VmHWM: %w", err)
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, fmt.Errorf("proc status: no VmHWM")
}

// parseWriteBytes reads write_bytes from /proc/<pid>/io: what the process
// caused to be sent to storage, counted when pages are dirtied.
func parseWriteBytes(data []byte) (uint64, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if val, ok := strings.CutPrefix(sc.Text(), "write_bytes:"); ok {
			v, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("proc io write_bytes: %w", err)
			}
			return v, nil
		}
	}
	return 0, fmt.Errorf("proc io: no write_bytes")
}

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// on every Linux architecture Go supports.
const clockTicks = 100

// parseProcStatCPU returns utime+stime from /proc/<pid>/stat. The command
// name in field 2 may hold spaces and parentheses, so fields are counted
// from the last ')'.
func parseProcStatCPU(data []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	f := strings.Fields(string(data[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	var ticks uint64
	for _, s := range f[11:13] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: %w", err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// parseGCTrace reads the stop-the-world time of one GODEBUG=gctrace=1
// line, "gc 7 @1.234s 2%: 0.015+1.1+0.021 ms clock, ...": the first and
// last terms of the wall-clock triple are the two pauses.
func parseGCTrace(line string) (pauseMs float64, ok bool) {
	if !strings.HasPrefix(line, "gc ") {
		return 0, false
	}
	_, rest, found := strings.Cut(line, ": ")
	if !found {
		return 0, false
	}
	clock, _, found := strings.Cut(rest, " ms clock")
	if !found {
		return 0, false
	}
	terms := strings.Split(clock, "+")
	if len(terms) != 3 {
		return 0, false
	}
	a, err1 := strconv.ParseFloat(terms[0], 64)
	c, err2 := strconv.ParseFloat(terms[2], 64)
	if err1 != nil || err2 != nil {
		return 0, false
	}
	return a + c, true
}

// cpuStat is the machine-wide CPU time of /proc/stat, in clock ticks.
type cpuStat struct {
	total, steal uint64
}

func readCPUStat() (cpuStat, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}, err
	}
	return parseCPUStat(data)
}

// parseCPUStat reads the aggregate "cpu" line: user nice system idle
// iowait irq softirq steal, then guest times that user already counts.
func parseCPUStat(data []byte) (cpuStat, error) {
	line, _, _ := bytes.Cut(data, []byte{'\n'})
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}, fmt.Errorf("proc stat: no cpu line")
	}
	var st cpuStat
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuStat{}, fmt.Errorf("proc stat: %w", err)
		}
		st.total += v
		if i == 7 {
			st.steal = v
		}
	}
	return st, nil
}
