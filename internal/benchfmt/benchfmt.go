// Package benchfmt defines the schema of the committed BENCH_PR*.json
// records and the regression diff over them. Two producers write the
// format — cmd/wsxbench (go-test benchmark parsing) and cmd/wsxload via
// scripts/loadtest.sh (open-loop load-test reports) — and `wsxbench -diff`
// consumes two records to flag hot-path regressions, so the schema lives
// in one shared package.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Result is one parsed `go test -bench` line. Result is immutable after
// publish: once a record lands in a Document (and ultimately the committed
// BENCH_PR*.json files) it is a measurement, and diffing depends on nobody
// editing it in place.
type Result struct {
	Package    string `json:"package"`
	Name       string `json:"name"`
	Procs      int    `json:"procs"`
	Iterations int64  `json:"iterations"`
	// Metrics maps benchmark units (ns/op, B/op, allocs/op, and any
	// custom b.ReportMetric units) to their values.
	Metrics map[string]float64 `json:"metrics"`
}

// LoadOp is the per-operation slice of one load-test run (submit or
// rank), immutable after publish like Result.
type LoadOp struct {
	Count      uint64  `json:"count"`
	Errors     uint64  `json:"errors"`
	Dropped    uint64  `json:"dropped"`
	GoodputRPS float64 `json:"goodput_rps"`
	P50Ms      float64 `json:"p50_ms"`
	P90Ms      float64 `json:"p90_ms"`
	P95Ms      float64 `json:"p95_ms"`
	P99Ms      float64 `json:"p99_ms"`
	P999Ms     float64 `json:"p999_ms"`
	MaxMs      float64 `json:"max_ms"`
	MeanMs     float64 `json:"mean_ms"`
}

// LoadTest is one wsxload run against wsxd, immutable after publish like
// Result.
type LoadTest struct {
	Label       string  `json:"label"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	TargetRPS   float64 `json:"target_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	DurationS   float64 `json:"duration_s"`
	SubmitMix   float64 `json:"submit_mix"`
	Submit      *LoadOp `json:"submit,omitempty"`
	Rank        *LoadOp `json:"rank,omitempty"`
}

// Document is the BENCH_PR*.json root.
type Document struct {
	Description string     `json:"description"`
	GoVersion   string     `json:"go_version"`
	GOOS        string     `json:"goos"`
	GOARCH      string     `json:"goarch"`
	NumCPU      int        `json:"num_cpu"`
	Benchmarks  []Result   `json:"benchmarks,omitempty"`
	LoadTests   []LoadTest `json:"load_tests,omitempty"`
}

// Load reads a benchmark record from disk.
func Load(path string) (Document, error) {
	var doc Document
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, fmt.Errorf("benchfmt: %w", err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("benchfmt: parse %s: %w", path, err)
	}
	return doc, nil
}

// Save writes the record, pretty-printed, to path ('-' for stdout).
func Save(path string, doc Document) error {
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("benchfmt: %w", err)
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err := os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// MergeLoadTest replaces any existing load test with the same label and
// GOMAXPROCS, keeping the rest — so a sweep can write one run at a time
// into the shared record.
func (d *Document) MergeLoadTest(lt LoadTest) {
	for i, old := range d.LoadTests {
		if old.Label == lt.Label && old.GOMAXPROCS == lt.GOMAXPROCS {
			d.LoadTests[i] = lt
			return
		}
	}
	d.LoadTests = append(d.LoadTests, lt)
	sort.SliceStable(d.LoadTests, func(i, j int) bool {
		if d.LoadTests[i].Label != d.LoadTests[j].Label {
			return d.LoadTests[i].Label < d.LoadTests[j].Label
		}
		return d.LoadTests[i].GOMAXPROCS < d.LoadTests[j].GOMAXPROCS
	})
}

// MergeBenchmarks folds fresh results into the record, replacing any
// entry with the same (package, name, procs) key and appending the rest —
// the benchmark analogue of MergeLoadTest, so a targeted sweep (e.g.
// `make bench-incremental`) can refresh its own entries without
// regenerating the whole record.
func (d *Document) MergeBenchmarks(results []Result) {
	for _, r := range results {
		replaced := false
		for i, old := range d.Benchmarks {
			if old.Package == r.Package && old.Name == r.Name && old.Procs == r.Procs {
				d.Benchmarks[i] = r
				replaced = true
				break
			}
		}
		if !replaced {
			d.Benchmarks = append(d.Benchmarks, r)
		}
	}
}

// HotPath names one benchmark whose regression should be flagged. Name is
// matched against Result.Name (bare, without the Benchmark prefix or
// -procs suffix); every procs variant present in both records is compared.
type HotPath struct {
	Name   string
	Metric string // usually ns/op
}

// DefaultHotPaths are the regression-guarded paths from the issue: the
// selection fast path, cf scoring, suite wall-clock, and (via load tests)
// wsxd tail latency.
var DefaultHotPaths = []HotPath{
	{Name: "RankSession", Metric: "ns/op"},
	{Name: "ScoreSelectionSweep", Metric: "ns/op"},
	{Name: "ScorePearson", Metric: "ns/op"},
	{Name: "SuiteSequential", Metric: "ns/op"},
	{Name: "SuiteParallel", Metric: "ns/op"},
}

// LegacyHotPaths are the PR 3 record paths that gate blocking in CI
// (scripts/bench_legacy_diff.sh): the cf mechanism microbenchmarks, cheap
// enough to re-measure per run so the gate can compare the committed
// BENCH_PR3.json against the current machine with a measured noise floor.
// The suite wall-clock rows in that record stay advisory — they cost
// ~10s/op and their absence from a gate run simply skips them in Diff.
var LegacyHotPaths = []HotPath{
	{Name: "ScorePearson", Metric: "ns/op"},
	{Name: "ScoreCosine", Metric: "ns/op"},
	{Name: "ScoreSelectionSweep", Metric: "ns/op"},
	{Name: "ItemMean", Metric: "ns/op"},
	{Name: "Submit", Metric: "ns/op"},
}

// IncrementalHotPaths are the PR 8 streaming-update paths: the warm-start
// submit+score unit of work across the population sweep. These gate
// blocking in CI (scripts/bench_incremental_diff.sh), with the tolerance
// widened by a measured ≥2-run noise floor.
var IncrementalHotPaths = []HotPath{
	{Name: "IncrementalSubmitScore", Metric: "ns/op"},
}

// MaxDelta returns the largest fractional difference (in either
// direction) between the two records across the named hot paths — the
// machine noise floor when old and new are back-to-back runs of the same
// code. Entries present in only one record are skipped.
func MaxDelta(old, new Document, hot []HotPath) float64 {
	type key struct {
		pkg, name string
		procs     int
	}
	oldBench := map[key]Result{}
	for _, r := range old.Benchmarks {
		oldBench[key{r.Package, r.Name, r.Procs}] = r
	}
	floor := 0.0
	for _, r := range new.Benchmarks {
		h, ok := matchHot(r.Name, hot)
		if !ok {
			continue
		}
		prev, ok := oldBench[key{r.Package, r.Name, r.Procs}]
		if !ok {
			continue
		}
		ov, nv := prev.Metrics[h.Metric], r.Metrics[h.Metric]
		if ov <= 0 || nv <= 0 {
			continue
		}
		if d := nv/ov - 1; d > floor {
			floor = d
		} else if d := ov/nv - 1; d > floor {
			floor = d
		}
	}
	return floor
}

// Regression is one flagged >tolerance slowdown.
type Regression struct {
	What   string // human-readable key
	Old    float64
	New    float64
	Change float64 // fractional change, 0.25 = 25% slower
}

func (r Regression) String() string {
	return fmt.Sprintf("%-40s %12.1f -> %12.1f  (%+.1f%%)", r.What, r.Old, r.New, r.Change*100)
}

// Diff compares two records and returns the hot-path regressions larger
// than tolerance (0.10 = 10%). Benchmarks are keyed by (package, name,
// procs); entries present in only one record are skipped (new benchmarks
// are not regressions; removed ones cannot be compared). Load tests
// compare p99 per operation, keyed by (label, gomaxprocs).
func Diff(old, new Document, hot []HotPath, tolerance float64) []Regression {
	var regs []Regression
	type key struct {
		pkg, name string
		procs     int
	}
	oldBench := map[key]Result{}
	for _, r := range old.Benchmarks {
		oldBench[key{r.Package, r.Name, r.Procs}] = r
	}
	for _, r := range new.Benchmarks {
		h, ok := matchHot(r.Name, hot)
		if !ok {
			continue
		}
		prev, ok := oldBench[key{r.Package, r.Name, r.Procs}]
		if !ok {
			continue
		}
		ov, nv := prev.Metrics[h.Metric], r.Metrics[h.Metric]
		if ov <= 0 || nv <= 0 {
			continue
		}
		if change := nv/ov - 1; change > tolerance {
			regs = append(regs, Regression{
				What: fmt.Sprintf("%s/%s-%d %s", r.Package, r.Name, r.Procs, h.Metric),
				Old:  ov, New: nv, Change: change,
			})
		}
	}

	type ltKey struct {
		label string
		procs int
	}
	oldLT := map[ltKey]LoadTest{}
	for _, lt := range old.LoadTests {
		oldLT[ltKey{lt.Label, lt.GOMAXPROCS}] = lt
	}
	for _, lt := range new.LoadTests {
		prev, ok := oldLT[ltKey{lt.Label, lt.GOMAXPROCS}]
		if !ok {
			continue
		}
		for _, op := range []struct {
			name     string
			old, new *LoadOp
		}{{"submit", prev.Submit, lt.Submit}, {"rank", prev.Rank, lt.Rank}} {
			if op.old == nil || op.new == nil || op.old.P99Ms <= 0 || op.new.P99Ms <= 0 {
				continue
			}
			if change := op.new.P99Ms/op.old.P99Ms - 1; change > tolerance {
				regs = append(regs, Regression{
					What: fmt.Sprintf("loadtest %s@%d %s p99_ms", lt.Label, lt.GOMAXPROCS, op.name),
					Old:  op.old.P99Ms, New: op.new.P99Ms, Change: change,
				})
			}
		}
	}
	return regs
}

// matchHot reports whether a benchmark name is one of the guarded paths.
func matchHot(name string, hot []HotPath) (HotPath, bool) {
	for _, h := range hot {
		if name == h.Name || strings.HasPrefix(name, h.Name+"/") {
			return h, true
		}
	}
	return HotPath{}, false
}
