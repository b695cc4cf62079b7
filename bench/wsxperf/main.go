// Command wsxperf is the repository benchmark. It builds cmd/wsxd and
// cmd/wsxsim, drives them with the workloads of workloads.go, checks that
// their outputs are correct, and prints one line per metric followed by a
// one-line JSON summary. From the repository root:
//
//	bash bench/run.sh -workload submit-heavy -seed 42 -seconds 20 -trace 0
//	bash bench/run.sh -seed 42                 # every workload
//	bash bench/run.sh -seed 42 -trace 1        # spans in .bench_build/wsxperf/spans.json
//	bash bench/run.sh -smoke                   # tiny preload, 1 s windows
//
// Load comes from this one process, open loop, over two connections;
// the driver and wsxd both run at GOMAXPROCS=1. With -trace the run
// replays a reference run in process instead of measuring end to end,
// recording a span around every call into a layer, and reports the
// per-layer metrics. bench/README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// env is one benchmark invocation.
type env struct {
	root         string // repository root
	out          string // .bench_build/wsxperf under the root
	work         string // work directory of this invocation, under out
	wsxd, wsxsim string // built binaries
	seed         int64
	seconds      float64 // measuring time per workload
	smoke        bool
	ladder       bool   // also search each serving workload's knee
	spans        string // span file of a traced run; "" when untraced
}

// e2eMetrics are the end-to-end metrics every workload reports, with
// their units. primary and secondary name each workload's two kinds of
// operation (README.md): on the serving workloads its dominant and its
// other endpoint, on sim-offline the suite and the scenario.
var e2eMetrics = [][2]string{
	{"setup_s", "s"}, {"rss_peak_mb", "MB"}, {"primary_p50_ms", "ms"}, {"secondary_p50_ms", "ms"},
}

func main() { os.Exit(run()) }

func run() int {
	runtime.GOMAXPROCS(1)
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 42, "seed the workload inputs are drawn from")
		seconds = flag.Float64("seconds", 20, "measuring time per workload, in seconds")
		ladder  = flag.Bool("ladder", true, "also offer each serving workload's ladder of rates and report its knee")
		trace   = flag.String("trace", "0", "0 for the end-to-end run; 1, or a span file path, for the traced per-layer run")
		smoke   = flag.Bool("smoke", false, "tiny preload and 1 s windows: checks the harness, measures nothing")
	)
	flag.Parse()

	selected := make([]*benchWorkload, 0, len(workloads))
	if *name == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wsxperf:", err)
			return 2
		}
		selected = append(selected, w)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "wsxperf: -seconds must be positive")
		return 2
	}

	e, err := newEnv(*seed, *seconds, *smoke, *ladder)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsxperf:", err)
		return 1
	}
	defer e.close()
	switch *trace {
	case "0", "":
	case "1":
		e.spans = filepath.Join(e.out, "spans.json")
	default:
		e.spans = *trace
	}
	rep := &report{prefixed: len(selected) > 1}
	for _, w := range selected {
		if err := e.measure(w, rep); err != nil {
			fmt.Fprintf(os.Stderr, "wsxperf: %s: %v\n", w.name, err)
			return 1
		}
	}
	if e.spans != "" {
		if err := rep.writeSpans(e.spans); err != nil {
			fmt.Fprintln(os.Stderr, "wsxperf:", err)
			return 1
		}
	}
	return rep.finish()
}

// newEnv finds the repository root, makes the invocation's work
// directory and builds the binaries under test.
func newEnv(seed int64, seconds float64, smoke, ladder bool) (*env, error) {
	e := &env{seed: seed, seconds: seconds, smoke: smoke, ladder: ladder}
	var err error
	if e.root, err = findRoot(); err != nil {
		return nil, err
	}
	e.out = filepath.Join(e.root, ".bench_build", "wsxperf")
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return nil, err
	}
	if e.work, err = os.MkdirTemp(e.out, "run-"); err != nil {
		return nil, err
	}
	if err := e.build(); err != nil {
		e.close()
		return nil, fmt.Errorf("build: %w", err)
	}
	return e, nil
}

// close removes the invocation's work directory.
func (e *env) close() {
	if err := os.RemoveAll(e.work); err != nil {
		fmt.Fprintln(os.Stderr, "wsxperf:", err)
	}
}

// measure runs one workload: end to end, or traced when a span file is
// set. It also prints how much CPU time the host took from the VM
// meanwhile, the usual cause of a run that reads slow.
func (e *env) measure(w *benchWorkload, rep *report) error {
	before, serr := readCPUStat()
	var err error
	switch {
	case w.serve != nil && e.spans == "":
		err = e.serveE2E(w, rep)
	case w.serve != nil:
		err = e.serveTraced(w, rep)
	case e.spans == "":
		err = e.simE2E(w, rep)
	default:
		err = e.simTraced(w, rep)
	}
	after, aerr := readCPUStat()
	if err == nil && serr == nil && aerr == nil && after.total > before.total {
		fmt.Printf("%s host steal %.1f%% of CPU time during the run\n", w.name,
			100*float64(after.steal-before.steal)/float64(after.total-before.total))
	}
	return err
}

// findRoot returns the repository root: the first of the working
// directory (bench/run.sh), its parent (go run in bench/) and its
// grandparent (go test in bench/wsxperf) that holds the wstrust module.
func findRoot() (string, error) {
	for _, c := range []string{".", "..", filepath.Join("..", "..")} {
		data, err := os.ReadFile(filepath.Join(c, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module wstrust\n") {
			return filepath.Abs(c)
		}
	}
	return "", errors.New("no wstrust module root found: run from the repository root")
}

// build compiles wsxd and wsxsim from the checkout. Build output and the
// Go build cache stay under .bench_build, and the toolchain gets an
// explicit environment: no network, no inherited settings.
func (e *env) build() error {
	cache := filepath.Join(e.root, ".bench_build")
	bin := filepath.Join(e.out, "bin")
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/wsxd", "./cmd/wsxsim")
	cmd.Dir = e.root
	cmd.Env = []string{
		"HOME=" + cache,
		"GOCACHE=" + filepath.Join(cache, "gocache"),
		"GOPATH=" + filepath.Join(cache, "gopath"),
		"GOTMPDIR=" + cache,
		"GOPROXY=off", "GOTOOLCHAIN=local", "GOFLAGS=", "GOENV=off", "GOWORK=off", "CGO_ENABLED=0",
	}
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return err
	}
	e.wsxd, e.wsxsim = filepath.Join(bin, "wsxd"), filepath.Join(bin, "wsxsim")
	return nil
}

// metric is one value of the JSON summary.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects every workload's metrics, counts and correctness
// problems, prints each metric as it arrives, and the summary at the end.
type report struct {
	prefixed          bool // several workloads: summary keys are "<workload>.<metric>"
	metrics           map[string]metric
	attempted, failed uint64
	problems          []string
	spans             []span
}

// add prints "<workload> <metric> <value> <unit> [note]" and records it.
func (r *report) add(wl, name string, v float64, unit, note string) {
	line := fmt.Sprintf("%s %s %s %s", wl, name, strconv.FormatFloat(v, 'g', 6, 64), unit)
	if note != "" {
		line += " " + note
	}
	fmt.Println(line)
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	if r.prefixed {
		name = wl + "." + name
	}
	r.metrics[name] = metric{v, unit}
}

func (r *report) problem(wl string, p ...string) {
	for _, s := range p {
		r.problems = append(r.problems, wl+": "+s)
	}
}

// finite returns an error naming a metric that is not a finite number:
// too few requests succeeded to measure it.
func (r *report) finite() error {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics { //lint:sorted keys are sorted below
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if v := r.metrics[n].Value; math.IsInf(v, 0) || math.IsNaN(v) {
			return fmt.Errorf("%s is %v: too few successful samples", n, v)
		}
	}
	return nil
}

// finish prints the JSON summary as the last line of standard output and
// returns the exit code: 0 only when every output checked out and every
// metric is a finite number.
func (r *report) finish() int {
	if err := r.finite(); err != nil {
		fmt.Fprintln(os.Stderr, "wsxperf:", err)
		return 1
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "wsxperf: incorrect output:", p)
	}
	summary := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, r.metrics}
	data, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsxperf:", err)
		return 1
	}
	fmt.Println(string(data))
	if len(r.problems) > 0 {
		return 1
	}
	return 0
}

// layers reports every per-layer metric in layerNames order; a layer the
// workload does not reach reads 0.
func (r *report) layers(wl string, vals map[string]float64) error {
	known := map[string]bool{}
	for _, l := range layerNames {
		known[l[0]] = true
		v, ok := vals[l[0]]
		note := ""
		if !ok {
			note = "(not on this workload's path)"
		}
		r.add(wl, l[0], v, l[1], note)
	}
	for name := range vals { //lint:sorted any unlisted name is an error; which one is reported does not matter
		if !known[name] {
			return fmt.Errorf("unlisted per-layer metric %s", name)
		}
	}
	return nil
}

func (r *report) writeSpans(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
