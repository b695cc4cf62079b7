package main

import (
	"fmt"
	"io"
	"os"
	"strings"
)

// gateSet is one blocking comparison: a job cheap enough to run twice per
// gate, and the ledger id whose rows it is checked against.
type gateSet struct {
	name, id string
	job      job
}

// gateSets are the hot paths the gate blocks on. Each pins -cpu 1 so its
// rows key-match the procs-1 rows of the committed entries on a runner
// of any size.
var gateSets = []gateSet{
	// Time-based benchtime keeps iteration counts high enough that the
	// sub-microsecond paths (ItemMean, Submit) measure above timer noise.
	// The entry's suite rows stay out: at ~10 s/op they would triple the
	// gate's cost for paths the golden digests already pin.
	{"cf", "PR3", job{pkg: "./internal/trust/cf", bench: cfBench, benchtime: "1s", cpu: "1"}},
	// The warm-start submit+score path at the populations whose set-up
	// takes seconds, not minutes; the entry's pop=100000 and cold rows
	// stay out.
	{"incremental", "PR8", job{pkg: "./internal/trust/eigentrust", bench: "^BenchmarkIncrementalSubmitScore$/^pop=(1000|10000)$", benchtime: "2000x", cpu: "1"}},
}

// gate runs every gate set's job twice on this machine and checks the
// first run against the set's ledger entry. It fails on any regression,
// and on a set that compares no row at all.
func gate(path string) error {
	l, err := loadLedger(path)
	if err != nil {
		return err
	}
	failures := 0
	for _, s := range gateSets {
		base, err := baseline(l, s.id, thisMachine())
		if err != nil {
			return err
		}
		fmt.Printf("wsxbench gate: %s against %s (%s)\n", s.name, s.id, base.fingerprint)
		run1, err := runJob(s.job)
		if err != nil {
			return err
		}
		run2, err := runJob(s.job)
		if err != nil {
			return err
		}
		failures += check(os.Stdout, base.Rows, run1, run2)
	}
	if failures > 0 {
		return fmt.Errorf("gate failed: %d regression(s) or empty comparison(s)", failures)
	}
	fmt.Println("wsxbench gate: no regressions")
	return nil
}

// check compares run1 with the baseline rows, widening the tolerance by
// the noise floor the two back-to-back runs show, prints the floor, the
// tolerance and every compared row, and returns the number of failures.
func check(w io.Writer, base, run1, run2 []row) int {
	floor := maxDelta(run1, run2)
	tol := tolerance(floor)
	fmt.Fprintf(w, "  noise floor %.4f over two runs -> tolerance %.1f%%\n", floor, tol*100)
	cmps, err := compare(base, run1)
	if err != nil {
		fmt.Fprintf(w, "  FAIL: %v\n", err)
		return 1
	}
	failures := 0
	for _, c := range cmps {
		verdict := ""
		if c.change() > tol {
			verdict = "  REGRESSION"
			failures++
		}
		fmt.Fprintf(w, "  %-62s %12.1f -> %12.1f ns/op (%+.1f%%)%s\n", c.key, c.old, c.new, c.change()*100, verdict)
	}
	return failures
}

// tolerance is the regression threshold: 10%, widened to twice the
// measured noise floor on a noisy machine.
func tolerance(floor float64) float64 { return max(0.10, 2*floor) }

// comparison is one fresh row checked against its baseline row on ns/op.
type comparison struct {
	key      string
	old, new float64
}

// change is the fractional slowdown: 0.25 is 25% slower.
func (c comparison) change() float64 { return c.new/c.old - 1 }

// compare pairs every fresh row with the baseline row of the same key.
// Baseline rows the fresh run lacks are skipped, because a gate job runs
// a cheap subset of its entry (no suite rows, no pop=100000, no cold
// baselines). Pairing no row at all is an error: a gate that compares
// nothing would pass without checking anything.
func compare(base, fresh []row) ([]comparison, error) {
	old := map[string]float64{}
	for _, r := range base {
		old[r.key()] = r.Metrics["ns/op"]
	}
	var cmps []comparison
	var unmatched []string
	for _, r := range fresh {
		ov, nv := old[r.key()], r.Metrics["ns/op"]
		if ov > 0 && nv > 0 {
			cmps = append(cmps, comparison{r.key(), ov, nv})
		} else {
			unmatched = append(unmatched, r.key())
		}
	}
	if len(cmps) == 0 {
		return nil, fmt.Errorf("no fresh row matches a baseline row: %s", strings.Join(unmatched, ", "))
	}
	return cmps, nil
}

// maxDelta is the largest fractional ns/op difference, in either
// direction, between rows of the same key in two runs: the machine's
// noise floor when both are back-to-back runs of the same code.
func maxDelta(a, b []row) float64 {
	cmps, err := compare(a, b)
	if err != nil {
		return 0
	}
	floor := 0.0
	for _, c := range cmps {
		floor = max(floor, c.new/c.old-1, c.old/c.new-1)
	}
	return floor
}
