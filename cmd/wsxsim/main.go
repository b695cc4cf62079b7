// Command wsxsim runs the wstrust experiment suite: every figure and
// qualitative claim of "A Review on Trust and Reputation for Web Service
// Selection" (Wang & Vassileva, 2007), regenerated in simulation.
//
// Usage:
//
//	wsxsim                      # run everything
//	wsxsim -experiment F4       # one experiment (F1..F4, C1..C10, A1..A5, R1..R6)
//	wsxsim -seed 7              # change the simulation seed
//	wsxsim -parallel 4          # fan independent experiments over 4 workers
//	wsxsim -faults lossy        # inject faults: a preset (lossy, lossy30,
//	                            # churny, outage, chaos) or key=value CSV, e.g.
//	                            # -faults drop=0.1,churn=0.05,attempts=4
//	wsxsim -resilience breaker  # guard registry discovery: a preset (breaker,
//	                            # naive) or key=value CSV, e.g.
//	                            # -resilience threshold=3,cooldown=90m
//	wsxsim -scenario scenarios/flash-crowd.json
//	                            # run one workload-DSL scenario through the
//	                            # struct-of-arrays engine instead of the
//	                            # experiment suite; -seed and -parallel apply
//	                            # (reports are byte-identical at any -parallel)
//	wsxsim -list                # list experiments
//	wsxsim -json                # machine-readable output
//	wsxsim -cpuprofile cpu.pprof -memprofile mem.pprof
//	                            # profile the run (go tool pprof)
//
// Experiments are independent seeded simulations, so -parallel N changes
// only wall-clock time: reports are byte-identical to a sequential run at
// the same seed, and are printed in suite order either way.
//
// The process exits non-zero if any executed experiment's measured shape
// mismatches the paper's claim, so the suite doubles as a regression gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"wstrust/internal/experiment"
	"wstrust/internal/fault"
	"wstrust/internal/resilience"
)

// main delegates to run so deferred profile writers flush before the
// process exits — os.Exit skips defers, so nothing below may call it.
func main() {
	os.Exit(run())
}

func run() (code int) {
	var (
		id           = flag.String("experiment", "all", "experiment id (F1..F4, C1..C10, A1..A5) or 'all'")
		seed         = flag.Int64("seed", 42, "simulation seed")
		parallel     = flag.Int("parallel", 1, "worker count for independent experiments (0 = all CPUs); results stay byte-identical to sequential")
		faults       = flag.String("faults", "none", "fault profile: none, a preset (lossy, lossy30, churny, outage, chaos), or key=value CSV (drop, dup, delay, timeout, churn, rejoin, outage=FROM-TO, attempts)")
		resil        = flag.String("resilience", "none", "discovery resilience: none, a preset (breaker, naive), or key=value CSV (breaker, threshold, cooldown, jitter, probes, attempts)")
		scenarioPath = flag.String("scenario", "", "run one scenario file (see scenarios/) through the SoA engine instead of the experiment suite")
		list         = flag.Bool("list", false, "list experiments and exit")
		asJSON       = flag.Bool("json", false, "emit machine-readable JSON instead of text reports")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile   = flag.String("memprofile", "", "write a heap profile, taken as the process exits, to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, cerr)
			}
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				code = 2
			}
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				code = 2
				return
			}
			runtime.GC() // profile live heap, not garbage awaiting collection
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				code = 2
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				code = 2
			}
		}()
	}

	if *list {
		for _, r := range experiment.All() {
			fmt.Printf("%-3s %s\n", r.ID, r.Desc)
		}
		return 0
	}

	if *scenarioPath != "" {
		// Scenario files carry their own mechanism, faults and resilience;
		// mixing the suite's flags in would silently contradict the file.
		conflict := ""
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "experiment", "faults", "resilience":
				conflict = f.Name
			}
		})
		if conflict != "" {
			fmt.Fprintf(os.Stderr, "-%s does not apply to -scenario runs: the scenario file defines the workload\n", conflict)
			return 2
		}
		if *parallel == 0 {
			*parallel = runtime.NumCPU()
		}
		return runScenario(*scenarioPath, *seed, *parallel, *asJSON)
	}

	profile, err := fault.ParseProfile(*faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if profile.Enabled() {
		// Install before RunSuite spawns workers; environments built with
		// no explicit profile (every F/C/A experiment) inherit it. R1-R6
		// pin their own regimes and are unaffected.
		experiment.SetDefaultFaults(profile)
		fmt.Printf("faults: %s\n\n", profile)
	}
	rprofile, err := resilience.ParseProfile(*resil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if rprofile.Enabled() {
		// Same contract as -faults: a process default inherited by envs
		// built with no explicit resilience profile; R5 pins its own.
		experiment.SetDefaultResilience(rprofile)
		fmt.Printf("resilience: %s\n\n", rprofile)
	}

	runners := experiment.All()
	if *id != "all" {
		r, err := experiment.ByID(*id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		runners = []experiment.Runner{r}
	}
	if *parallel == 0 {
		*parallel = runtime.NumCPU()
	}

	outcomes := experiment.RunSuite(runners, *seed, *parallel)

	failures := 0
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	for _, o := range outcomes {
		if o.Err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", o.Runner.ID, o.Err)
			failures++
			continue
		}
		rep := o.Report
		if *asJSON {
			if err := enc.Encode(struct {
				ID    string             `json:"id"`
				Title string             `json:"title"`
				Claim string             `json:"paper_claim"`
				Shape string             `json:"measured_shape"`
				Pass  bool               `json:"pass"`
				Data  map[string]float64 `json:"data,omitempty"`
			}{rep.ID, rep.Title, rep.PaperClaim, rep.Shape, rep.Pass, rep.Data}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
		} else {
			fmt.Println(rep)
		}
		if !rep.Pass {
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) mismatched the paper's shape\n", failures)
		return 1
	}
	return 0
}
