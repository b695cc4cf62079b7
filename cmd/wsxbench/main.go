// Command wsxbench keeps the repository's benchmark ledger,
// BENCH_LEDGER.json, and gates changes against it.
//
// It shells out to `go test -bench` so the numbers are exactly what the
// standard benchmark harness reports; wsxbench only parses, records and
// compares. Each ledger entry holds one job set's rows, keyed by an id
// naming the change whose claims the rows back and by the fingerprint of
// the machine that measured them: go version, GOOS/GOARCH and CPU count.
// Entries carry no timestamp or hostname.
//
// Usage, from the repository root:
//
//	wsxbench                    # suite, C4, cf and registry submit paths
//	wsxbench -jobs incremental  # the incremental-trust population sweep
//	wsxbench -jobs scenario     # the million-agent scenario engine
//	wsxbench gate               # the blocking hot-path regression gate
//
// A job-set run refreshes its id's entry for this machine: rows it
// measured again are replaced in place, new rows are appended, and on a
// machine with no entry yet it adds one, leaving every other entry as
// history.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

const ledgerPath = "BENCH_LEDGER.json"

// cfBench selects the cf mechanism microbenchmarks: steady personalized
// and item-mean Score, a scoring sweep with a rating between rounds, and
// Submit. Both the default job set and the gate run them.
const cfBench = "^(BenchmarkScorePearson|BenchmarkScoreCosine|BenchmarkScoreSelectionSweep|BenchmarkItemMean|BenchmarkSubmit)$"

// job is one `go test -bench` invocation.
type job struct {
	pkg       string
	bench     string // -bench regexp
	benchtime string // empty = harness default
	cpu       string // -cpu list, e.g. "1,2,4"; empty = current GOMAXPROCS
}

// jobSet is the benchmarks behind one ledger id.
type jobSet struct {
	id, description string
	jobs            []job
}

var jobSets = map[string]jobSet{
	"default": {"PR6", "wstrust benchmark record: suite wall-clock, C4, cf scoring, sharded registry + group-commit WAL submit paths; refresh with `make bench-json`", []job{
		// Whole-suite wall-clock (sequential vs parallel) plus the C4
		// critical-path experiment; one iteration each — these run full
		// seeded experiment suites per op.
		{pkg: ".", bench: "^(BenchmarkSuiteSequential|BenchmarkSuiteParallel|BenchmarkClaimPersonalization)$", benchtime: "1x"},
		{pkg: "./internal/trust/cf", bench: cfBench},
		// Registry submit paths vs the single-mutex baseline, swept
		// across GOMAXPROCS. The "Sharded" names date from the 16
		// lock-striped shards the one ordered log replaced; they stay so
		// new runs line up with the recorded rows. The durable pair is the
		// group-commit fsync-amortization claim; fixed iteration counts
		// keep runs comparable.
		{pkg: "./internal/registry", bench: "^(BenchmarkSubmitMemSharded|BenchmarkSubmitMemUnsharded|BenchmarkSubmitDurableGroupCommit|BenchmarkSubmitDurableUnsharded)$", benchtime: "2000x", cpu: "1,2,4"},
	}},
	"incremental": {"PR8", "wstrust benchmark record: incremental trust, delta-propagated scoring with warm-start fixpoints; refresh with `make bench-incremental`", []job{
		// The warm-start submit+score unit of work across the population
		// sweep. The cold baseline runs one iteration: exact mode reruns
		// every power-iteration round per op (about 60 ms at pop=100k on
		// the CSR pass; the n×n build it replaced took about 300 s).
		{pkg: "./internal/trust/eigentrust", bench: "^BenchmarkIncrementalSubmitScore$", benchtime: "2000x"},
		{pkg: "./internal/trust/eigentrust", bench: "^BenchmarkColdSubmitScore$", benchtime: "1x"},
	}},
	"scenario": {"PR9", "wstrust benchmark record: million-agent scenario engine over struct-of-arrays slabs; refresh with `make bench-scenario`", []job{
		// One iteration each — the million-consumer scenario simulates 12
		// full rounds per op, and the serial twin pins the parallel
		// speedup. The golden-sized cocktail tracks the shape CI runs.
		{pkg: "./internal/scenario", bench: "^(BenchmarkScenarioEngineMillion|BenchmarkScenarioEngineMillionSerial)$", benchtime: "1x"},
		{pkg: "./internal/scenario", bench: "^BenchmarkScenarioEngineGolden$", benchtime: "3x"},
	}},
}

func main() {
	jobsName := flag.String("jobs", "default", "job set to run and record: default, incremental or scenario")
	flag.Parse()
	var err error
	switch {
	case flag.NArg() == 0:
		err = refresh(ledgerPath, *jobsName)
	case flag.NArg() == 1 && flag.Arg(0) == "gate":
		err = gate(ledgerPath)
	default:
		fmt.Fprintln(os.Stderr, "usage: wsxbench [-jobs default|incremental|scenario] | wsxbench gate")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsxbench:", err)
		os.Exit(1)
	}
}

// refresh runs the named job set and records its rows in the ledger
// under this machine's fingerprint.
func refresh(path, name string) error {
	set, ok := jobSets[name]
	if !ok {
		return fmt.Errorf("unknown job set %q (want default, incremental or scenario)", name)
	}
	l, err := loadLedger(path)
	if err != nil {
		return err
	}
	var rows []row
	for _, j := range set.jobs {
		rs, err := runJob(j)
		if err != nil {
			return err
		}
		rows = append(rows, rs...)
	}
	return saveLedger(path, record(l, set.id, set.description, thisMachine(), rows))
}

func runJob(j job) ([]row, error) {
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
	outBytes, err := exec.Command("go", args...).CombinedOutput()
	output := string(outBytes)
	if err != nil {
		return nil, fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, output)
	}
	var rows []row
	for _, line := range strings.Split(output, "\n") {
		r, ok, err := parseLine(j.pkg, line)
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", line, err)
		}
		if ok {
			rows = append(rows, r)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("go %s matched no benchmarks:\n%s", strings.Join(args, " "), output)
	}
	return rows, nil
}

// parseLine decodes one standard benchmark result line, e.g.
//
//	BenchmarkScorePearson-4   343012   3493 ns/op   120 B/op   3 allocs/op
//
// including any custom b.ReportMetric pairs. Non-benchmark lines return
// ok=false.
//
//lint:immutable parseLine builds the row; it is unpublished until returned.
func parseLine(pkg, line string) (row, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") || len(fields)%2 != 0 {
		return row{}, false, nil
	}
	name, procs := strings.TrimPrefix(fields[0], "Benchmark"), 1
	if i := strings.LastIndex(name, "-"); i >= 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return row{}, false, nil // a Benchmark-prefixed non-result line
	}
	r := row{Package: pkg, Name: name, Procs: procs, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return row{}, false, fmt.Errorf("metric value %q: %w", fields[i], err)
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true, nil
}
