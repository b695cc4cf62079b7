package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wstrust/internal/experiment"
	"wstrust/internal/scenario"
	"wstrust/internal/simclock"
)

// millionDigest is the report digest of scenarios/million-flash-crowd.json,
// which pins seed 42. The golden scenario suite skips it as too large,
// so the benchmark is what pins it.
const millionDigest = "b435b36fe2a1196899dfd712ba4e7418aaaf79665e81c4ce093ad9854e6317df"

// simWorkers is the -parallel of every simulator run, one per core.
const simWorkers = 2

// suiteSeeds are the seeds at which the suite promises every paper shape
// (README); at others an experiment may mismatch and wsxsim exit 1. The
// suite runs at the benchmark seed when it is one of these, else at the
// one the seed picks.
var suiteSeeds = [...]int64{42, 7, 123}

func suiteSeed(seed int64) int64 {
	for _, s := range suiteSeeds {
		if s == seed {
			return s
		}
	}
	return suiteSeeds[(seed%3+3)%3]
}

// simCase is one simulator invocation the sim-offline workload repeats.
type simCase struct {
	name     string
	args     []string
	scenario string // scenario file, for the cases that run one
	digest   string // expected report digest of a scenario case
}

// simCases returns the suite and the scenario case. A smoke run swaps in
// one fast experiment and the small baseline scenario.
func (e *env) simCases() (suite, scen simCase, err error) {
	seed := strconv.FormatInt(suiteSeed(e.seed), 10)
	par := strconv.Itoa(simWorkers)
	suite = simCase{name: "suite", args: []string{"-parallel", par, "-seed", seed}}
	scen = simCase{name: "scenario", scenario: filepath.Join(e.root, "scenarios", "million-flash-crowd.json"), digest: millionDigest}
	if e.smoke {
		suite.args = append(suite.args, "-experiment", "C7")
		scen.scenario = filepath.Join(e.root, "scenarios", "baseline-honest.json")
		if scen.digest, err = goldenScenarioDigest(e.root, "baseline-honest"); err != nil {
			return suite, scen, err
		}
	}
	scen.args = []string{"-scenario", scen.scenario, "-parallel", par}
	return suite, scen, nil
}

func goldenScenarioDigest(root, name string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "internal", "scenario", "testdata", "scenario_digests.json"))
	if err != nil {
		return "", err
	}
	var digests map[string]string
	if err := json.Unmarshal(data, &digests); err != nil {
		return "", err
	}
	d, ok := digests[name]
	if !ok {
		return "", fmt.Errorf("no golden digest for scenario %s", name)
	}
	return d, nil
}

// simRun is one finished simulator process.
type simRun struct {
	wall   time.Duration
	simSec float64 // the simulation time a scenario run prints; 0 for the suite
	rssMB  float64
	stdout []byte
}

// roundsRE matches wsxsim's scenario timing line on stderr. The rate has
// more significant digits than the elapsed seconds, so the simulation
// time is taken as rounds over rate.
var roundsRE = regexp.MustCompile(`simulated (\d+) rounds in [0-9.]+s \(([0-9.]+) rounds/s`)

func (e *env) runSim(c simCase) (*simRun, error) {
	cmd := exec.Command(e.wsxsim, c.args...)
	cmd.Env = childEnv(simWorkers)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	clock := simclock.Wall()
	start := clock.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// The peak resident set is only readable while the process lives, so
	// it is sampled until the process exits.
	stop, peak := make(chan struct{}), make(chan float64, 1)
	go func() {
		hwm := 0.0
		for {
			if v, err := vmHWM(cmd.Process.Pid); err == nil {
				hwm = max(hwm, v)
			}
			select {
			case <-stop:
				peak <- hwm
				return
			default:
			}
			simclock.SleepWall(10 * time.Millisecond)
		}
	}()
	err := cmd.Wait()
	close(stop)
	r := &simRun{wall: clock.Now().Sub(start), stdout: stdout.Bytes(), rssMB: <-peak}
	if err != nil {
		return nil, fmt.Errorf("wsxsim %s: %w: %s", strings.Join(c.args, " "), err, lastLines(stderr.String(), 5))
	}
	if c.scenario != "" {
		m := roundsRE.FindStringSubmatch(stderr.String())
		if m == nil {
			return nil, fmt.Errorf("wsxsim printed no timing line: %s", lastLines(stderr.String(), 5))
		}
		rounds, err1 := strconv.ParseFloat(m[1], 64)
		rate, err2 := strconv.ParseFloat(m[2], 64)
		if err1 != nil || err2 != nil || rate <= 0 {
			return nil, fmt.Errorf("bad timing line %q", m[0])
		}
		r.simSec = rounds / rate
	}
	return r, nil
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// checkSim verifies a simulator's output: the seed-42 suite must hash to
// the committed golden digest, and a scenario must print its pinned one.
func (e *env) checkSim(c simCase, r *simRun) error {
	if c.scenario != "" {
		want := "digest: " + c.digest
		if !bytes.Contains(r.stdout, []byte(want+"\n")) {
			return fmt.Errorf("%s: report digest is not %s", filepath.Base(c.scenario), c.digest)
		}
		return nil
	}
	if suiteSeed(e.seed) != 42 || e.smoke {
		return nil
	}
	raw, err := os.ReadFile(filepath.Join(e.root, "internal", "experiment", "testdata", "suite_seed42.sha256"))
	if err != nil {
		return err
	}
	sum := sha256.Sum256(r.stdout)
	if got, want := hex.EncodeToString(sum[:]), strings.TrimSpace(string(raw)); got != want {
		return fmt.Errorf("seed-42 suite output hashes to %s, golden is %s", got, want)
	}
	return nil
}

// simE2E alternates whole suite and scenario runs until the measuring
// time is spent, at least twice each (exactly twice in a smoke run), and
// reports their wall times.
func (e *env) simE2E(wl *benchWorkload, rep *report) error {
	suite, scen, err := e.simCases()
	if err != nil {
		return err
	}
	runs := map[string][]*simRun{}
	clock := simclock.Wall()
	start := clock.Now()
	budget := time.Duration(e.seconds * float64(time.Second))
	if e.smoke {
		budget = 0
	}
	// fits reports whether another run of c is due: always until it has
	// run twice, then while its last run's length still fits the budget.
	fits := func(c simCase) bool {
		prev := runs[c.name]
		return len(prev) < 2 || clock.Now().Sub(start)+prev[len(prev)-1].wall <= budget
	}
	cases := []simCase{suite, scen}
	for i := 0; fits(cases[0]) || fits(cases[1]); i++ {
		c := cases[i%2]
		if !fits(c) {
			continue
		}
		rep.attempted++
		r, err := e.runSim(c)
		if err != nil {
			return err
		}
		if err := e.checkSim(c, r); err != nil {
			rep.problem(wl.name, err.Error())
		}
		runs[c.name] = append(runs[c.name], r)
	}

	var setups, rss []float64
	for _, r := range runs["scenario"] {
		setups = append(setups, r.wall.Seconds()-r.simSec)
	}
	walls := func(rs []*simRun) []float64 {
		var out []float64
		for _, r := range rs {
			out = append(out, float64(r.wall.Microseconds())/1000)
			rss = append(rss, r.rssMB)
		}
		return out
	}
	suiteMs, scenMs := walls(runs["suite"]), walls(runs["scenario"])
	fmt.Printf("%s runs: suite %.6g ms, scenario %.6g ms\n", wl.name, suiteMs, scenMs)
	rep.add(wl.name, "setup_s", median(setups), "s", fmt.Sprintf("scenario wall minus simulation, median of %d", len(setups)))
	rep.add(wl.name, "rss_peak_mb", maxOf(rss), "MB", "largest wsxsim VmHWM")
	rep.add(wl.name, "primary_p50_ms", median(suiteMs), "ms", fmt.Sprintf("suite wall, median of %d", len(suiteMs)))
	rep.add(wl.name, "secondary_p50_ms", median(scenMs), "ms", fmt.Sprintf("scenario wall, median of %d", len(scenMs)))
	return nil
}

// simTraced times the simulator's layers in process: every experiment
// runner alone at parallelism 1, then the scenario's parse, build and
// run.
func (e *env) simTraced(wl *benchWorkload, rep *report) error {
	_, scen, err := e.simCases()
	if err != nil {
		return err
	}
	runners := experiment.All()
	if e.smoke {
		r, err := experiment.ByID("C7")
		if err != nil {
			return err
		}
		runners = []experiment.Runner{r}
	}
	t := newTracer()
	v := map[string]float64{}
	var sum, crit float64
	root := t.begin(0, 0, intern("experiment.suite"))
	for _, r := range runners {
		m := t.begin(root.id, 0, intern("experiment."+r.ID))
		out := experiment.RunSuite([]experiment.Runner{r}, suiteSeed(e.seed), 1)
		sec := t.end(m).Seconds()
		rep.attempted++
		if o := out[0]; o.Err != nil || !o.Report.Pass {
			rep.failed++
			rep.problem(wl.name, fmt.Sprintf("experiment %s: err %v, pass %v", r.ID, o.Err, o.Report.Pass))
		}
		v["experiment."+r.ID+"_s"] = sec
		sum += sec
		crit = max(crit, sec)
	}
	t.end(root)
	v["experiment.critical_path_s"] = crit
	v["experiment.sum_s"] = sum

	rep.attempted++
	st, err := runScenario(scen, t)
	if err != nil {
		return err
	}
	v["scenario.parse_ms"] = ms(st.parse)
	v["scenario.build_s"] = st.build.Seconds()
	v["scenario.run_s"] = st.run.Seconds()
	// The spans here wrap calls of a tenth of a second and more, about
	// thirty in all: their cost is far below the run-to-run spread of the
	// calls they time, so a traced-against-untraced comparison would
	// measure that spread. The overhead is the spans' count times the
	// tracer's timed cost per span instead, over the traced time.
	v["trace.overhead_frac"] = float64(len(t.spans())) * float64(spanCost()) / float64(time.Duration((sum+st.total.Seconds())*float64(time.Second)))
	rep.spans = append(rep.spans, t.spans()...)
	return rep.layers(wl.name, v)
}

// scenarioTimes is one in-process scenario run split by layer.
type scenarioTimes struct {
	parse, build, run, total time.Duration
}

// runScenario parses, builds and runs the case's scenario in process and
// checks its digest; with a tracer it records a span around each step.
func runScenario(c simCase, t *tracer) (scenarioTimes, error) {
	var st scenarioTimes
	clock := simclock.Wall()
	start := clock.Now()
	root := t.begin(0, 1, intern("scenario"))
	m := t.begin(root.id, 1, intern("scenario.parse"))
	sc, err := scenario.ParseFile(c.scenario)
	st.parse = t.end(m)
	if err != nil {
		return st, err
	}
	m = t.begin(root.id, 1, intern("scenario.build"))
	eng, err := scenario.New(sc, 42) // both scenarios the benchmark runs pin their own seed
	st.build = t.end(m)
	if err != nil {
		return st, err
	}
	m = t.begin(root.id, 1, intern("scenario.run"))
	rpt := eng.Run(simWorkers)
	st.run = t.end(m)
	t.end(root)
	st.total = clock.Now().Sub(start)
	if got := rpt.Digest(); got != c.digest {
		return st, fmt.Errorf("%s: in-process digest %s, want %s", sc.Name, got, c.digest)
	}
	return st, nil
}
