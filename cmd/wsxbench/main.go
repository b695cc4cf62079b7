// Command wsxbench runs the repository's key benchmarks — whole-suite
// wall-clock, the C4 critical-path experiment, the cf mechanism
// microbenchmarks behind PR 3's epoch caches, and the PR 6 sharded
// registry submit paths at several GOMAXPROCS settings — and renders the
// parsed results as one JSON document (the committed BENCH_PR*.json,
// schema in internal/benchfmt).
//
// It shells out to `go test -bench` so the numbers are exactly what the
// standard benchmark harness reports; wsxbench only parses and formats.
// The output deliberately carries no timestamp or hostname: it is a
// reproduction record keyed by go version, regenerated via
// `make bench-json`. Load-test entries already present in the output file
// (written by scripts/loadtest.sh) are preserved.
//
// Usage:
//
//	wsxbench                           # writes BENCH_PR6.json
//	wsxbench -out -                    # writes the JSON to stdout
//	wsxbench -benchtime 2s             # longer microbenchmark runs
//	wsxbench -diff old.json new.json   # flag >10% hot-path regressions
//	wsxbench -jobs incremental -merge -out BENCH_PR8.json
//	                                   # PR 8: run only the incremental
//	                                   # trust sweep, merge into the record
//	wsxbench -noise a.json b.json      # print the max fractional delta
//	                                   # between two runs (the noise floor)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"

	"wstrust/internal/benchfmt"
)

// job is one `go test -bench` invocation.
type job struct {
	pkg       string
	bench     string // -bench regexp
	benchtime string // empty = harness default
	cpu       string // -cpu list, e.g. "1,2,4"; empty = current GOMAXPROCS
}

func main() {
	out := flag.String("out", "BENCH_PR6.json", "output path, '-' for stdout")
	benchtime := flag.String("benchtime", "", "benchtime for the mechanism microbenchmarks (harness default when empty)")
	diff := flag.Bool("diff", false, "compare two BENCH_PR*.json records (old new) and flag >tolerance hot-path regressions")
	noise := flag.Bool("noise", false, "print the max fractional hot-path delta between two records (old new) — the run-to-run noise floor")
	tolerance := flag.Float64("tolerance", 0.10, "fractional regression tolerance for -diff")
	hot := flag.String("hot", "default", "hot-path set for -diff/-noise: default or incremental")
	jobsName := flag.String("jobs", "default", "benchmark job set: default (the PR 6 record), incremental (the PR 8 trust sweep), or incremental-gate (warm path only, small pops — the CI gate)")
	merge := flag.Bool("merge", false, "merge results into an existing record instead of replacing its benchmarks")
	flag.Parse()
	if *diff || *noise {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "wsxbench: -diff/-noise need exactly two record paths (old new)")
			os.Exit(2)
		}
		hotPaths, err := hotSet(*hot)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wsxbench:", err)
			os.Exit(2)
		}
		var code int
		if *noise {
			code, err = runNoise(flag.Arg(0), flag.Arg(1), hotPaths)
		} else {
			code, err = runDiff(flag.Arg(0), flag.Arg(1), hotPaths, *tolerance)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "wsxbench:", err)
			os.Exit(2)
		}
		os.Exit(code)
	}
	if err := run(*out, *benchtime, *jobsName, *merge); err != nil {
		fmt.Fprintln(os.Stderr, "wsxbench:", err)
		os.Exit(1)
	}
}

// hotSet resolves the -hot flag to a guarded-path list.
func hotSet(name string) ([]benchfmt.HotPath, error) {
	switch name {
	case "default":
		return benchfmt.DefaultHotPaths, nil
	case "incremental":
		return benchfmt.IncrementalHotPaths, nil
	case "legacy":
		return benchfmt.LegacyHotPaths, nil
	}
	return nil, fmt.Errorf("unknown hot-path set %q (want default, incremental, or legacy)", name)
}

// runNoise prints the largest fractional hot-path delta between two
// records, in either direction — back-to-back runs of identical code make
// this the machine's noise floor, which bench_incremental_diff.sh folds
// into its blocking tolerance.
func runNoise(aPath, bPath string, hot []benchfmt.HotPath) (int, error) {
	a, err := benchfmt.Load(aPath)
	if err != nil {
		return 0, err
	}
	b, err := benchfmt.Load(bPath)
	if err != nil {
		return 0, err
	}
	fmt.Printf("%.4f\n", benchfmt.MaxDelta(a, b, hot))
	return 0, nil
}

// runDiff loads two records and prints regressions on the named hot
// paths. Exit code 1 means "regressions found"; CI keeps the default-set
// diff non-blocking (continue-on-error) while the incremental-set diff
// blocks.
func runDiff(oldPath, newPath string, hot []benchfmt.HotPath, tolerance float64) (int, error) {
	oldDoc, err := benchfmt.Load(oldPath)
	if err != nil {
		return 0, err
	}
	newDoc, err := benchfmt.Load(newPath)
	if err != nil {
		return 0, err
	}
	regs := benchfmt.Diff(oldDoc, newDoc, hot, tolerance)
	if len(regs) == 0 {
		fmt.Printf("wsxbench diff: no hot-path regressions > %.0f%% (%s -> %s)\n",
			tolerance*100, oldPath, newPath)
		return 0, nil
	}
	fmt.Printf("wsxbench diff: %d hot-path regression(s) > %.0f%% (%s -> %s):\n",
		len(regs), tolerance*100, oldPath, newPath)
	for _, r := range regs {
		fmt.Println("  " + r.String())
	}
	return 1, nil
}

// jobSet returns the named job list and the record description it writes.
func jobSet(name, benchtime string) ([]job, string, error) {
	switch name {
	case "default":
		return []job{
			// Whole-suite wall-clock (sequential vs parallel) plus the C4
			// critical-path experiment; one iteration each — these run full
			// seeded experiment suites per op.
			{pkg: ".", bench: "^(BenchmarkSuiteSequential|BenchmarkSuiteParallel|BenchmarkClaimPersonalization)$", benchtime: "1x"},
			// The cf mechanism microbenchmarks the epoch caches target.
			{pkg: "./internal/trust/cf", bench: "^(BenchmarkScorePearson|BenchmarkScoreCosine|BenchmarkScoreSelectionSweep|BenchmarkItemMean|BenchmarkSubmit)$", benchtime: benchtime},
			// PR 6: sharded registry submit paths vs the committed unsharded
			// baseline, swept across GOMAXPROCS. The durable pair is the
			// group-commit fsync-amortization claim; keep iteration counts
			// fixed so runs are comparable.
			{pkg: "./internal/registry", bench: "^(BenchmarkSubmitMemSharded|BenchmarkSubmitMemUnsharded|BenchmarkSubmitDurableGroupCommit|BenchmarkSubmitDurableUnsharded)$", benchtime: "2000x", cpu: "1,2,4"},
		}, "wstrust benchmark record for PR 6 (sharded registry + group-commit WAL + wsxload); regenerate with `make bench-json` and `make loadtest`", nil
	case "incremental":
		return []job{
			// PR 8: the warm-start submit+score unit of work across the
			// population sweep. Fixed iteration counts keep runs comparable;
			// the cold baseline is capped at one iteration because exact mode
			// recomputes the full fixpoint per op (~200s at pop=100k).
			{pkg: "./internal/trust/eigentrust", bench: "^BenchmarkIncrementalSubmitScore$", benchtime: "2000x"},
			{pkg: "./internal/trust/eigentrust", bench: "^BenchmarkColdSubmitScore$", benchtime: "1x"},
		}, "wstrust benchmark record for PR 8 (incremental trust: delta-propagated scoring with warm-start fixpoints); regenerate with `make bench-incremental`", nil
	case "scenario":
		return []job{
			// PR 9: the struct-of-arrays scenario engine at benchmark scale.
			// One iteration each — the million-consumer scenario simulates
			// 12 full rounds per op, and the serial twin pins the parallel
			// speedup. The golden-sized cocktail tracks the shape CI runs.
			{pkg: "./internal/scenario", bench: "^(BenchmarkScenarioEngineMillion|BenchmarkScenarioEngineMillionSerial)$", benchtime: "1x"},
			{pkg: "./internal/scenario", bench: "^BenchmarkScenarioEngineGolden$", benchtime: "3x"},
		}, "wstrust benchmark record for PR 9 (million-agent scenario engine over struct-of-arrays slabs); regenerate with `make bench-scenario`", nil
	case "incremental-gate":
		return []job{
			// The CI regression gate's cheap subset: warm-start path only, at
			// the populations whose setup is seconds, not minutes. The diff
			// against the committed full-sweep record skips the rows absent
			// here (pop=100000 and the cold baselines), so the gate stays
			// fast while the record stays complete.
			{pkg: "./internal/trust/eigentrust", bench: "^BenchmarkIncrementalSubmitScore$/^pop=(1000|10000)$", benchtime: "2000x"},
		}, "wstrust incremental-trust gate run (transient; not a committed record)", nil
	case "legacy-gate":
		return []job{
			// The blocking legacy gate's subset: the cf mechanism
			// microbenchmarks from the committed PR 3 record, pinned to one
			// proc to match that record's rows. Time-based benchtime keeps
			// iteration counts high enough that the sub-microsecond paths
			// (ItemMean, Submit) measure above timer noise. The suite
			// wall-clock rows stay out — at ~10s/op they would triple the
			// gate's cost for paths the scenario goldens already pin.
			{pkg: "./internal/trust/cf", bench: "^(BenchmarkScorePearson|BenchmarkScoreCosine|BenchmarkScoreSelectionSweep|BenchmarkItemMean|BenchmarkSubmit)$", benchtime: "1s", cpu: "1"},
		}, "wstrust legacy hot-path gate run (transient; not a committed record)", nil
	}
	return nil, "", fmt.Errorf("unknown job set %q (want default, incremental, incremental-gate, legacy-gate, or scenario)", name)
}

func run(out, benchtime, jobsName string, merge bool) error {
	jobs, description, err := jobSet(jobsName, benchtime)
	if err != nil {
		return err
	}
	doc := benchfmt.Document{
		Description: description,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
	}
	// Keep entries already in the output file: load tests always (written
	// by scripts/loadtest.sh), prior benchmarks when merging (so a
	// targeted job set refreshes only its own rows).
	if prev, err := benchfmt.Load(out); err == nil {
		doc.LoadTests = prev.LoadTests
		if merge {
			doc.Benchmarks = prev.Benchmarks
			if prev.Description != "" {
				doc.Description = prev.Description
			}
		}
	} else if !errors.Is(err, fs.ErrNotExist) && out != "-" {
		fmt.Fprintf(os.Stderr, "wsxbench: ignoring unreadable %s: %v\n", out, err)
	}
	for _, j := range jobs {
		results, err := runJob(j)
		if err != nil {
			return err
		}
		doc.MergeBenchmarks(results)
	}
	return benchfmt.Save(out, doc)
}

func runJob(j job) ([]benchfmt.Result, error) {
	// The cold full-recompute baselines run minutes per op at the top of
	// the population sweep; lift go test's default 10m ceiling.
	args := []string{"test", "-run", "^$", "-bench", j.bench, "-benchmem", "-timeout", "60m"}
	if j.benchtime != "" {
		args = append(args, "-benchtime", j.benchtime)
	}
	if j.cpu != "" {
		args = append(args, "-cpu", j.cpu)
	}
	args = append(args, j.pkg)
	cmd := exec.Command("go", args...)
	outBytes, err := cmd.CombinedOutput()
	output := string(outBytes)
	if err != nil {
		return nil, fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, output)
	}
	var results []benchfmt.Result
	for _, line := range strings.Split(output, "\n") {
		r, ok, err := parseLine(j.pkg, line)
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", line, err)
		}
		if ok {
			results = append(results, r)
		}
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("go %s matched no benchmarks:\n%s", strings.Join(args, " "), output)
	}
	return results, nil
}

// parseLine decodes one standard benchmark result line, e.g.
//
//	BenchmarkScorePearson-4   343012   3493 ns/op   120 B/op   3 allocs/op
//
// including any custom b.ReportMetric pairs. Non-benchmark lines return
// ok=false.
//
//lint:immutable parseLine builds the Result; it is unpublished until returned.
func parseLine(pkg, line string) (benchfmt.Result, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") || len(fields)%2 != 0 {
		return benchfmt.Result{}, false, nil
	}
	name, procs := strings.TrimPrefix(fields[0], "Benchmark"), 1
	if i := strings.LastIndex(name, "-"); i >= 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchfmt.Result{}, false, nil // a Benchmark-prefixed non-result line
	}
	r := benchfmt.Result{Package: pkg, Name: name, Procs: procs, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchfmt.Result{}, false, fmt.Errorf("metric value %q: %w", fields[i], err)
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true, nil
}
