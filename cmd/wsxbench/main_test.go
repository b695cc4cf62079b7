package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func bench(pkg, name string, procs int, nsop float64) row {
	return row{Package: pkg, Name: name, Procs: procs, Iterations: 100,
		Metrics: map[string]float64{"ns/op": nsop}}
}

func TestParseLine(t *testing.T) {
	for _, tc := range []struct {
		line    string
		want    row // zero when the line is not a result
		wantErr bool
	}{
		{line: "BenchmarkScorePearson-4   343012   3493 ns/op   120 B/op   3 allocs/op",
			want: row{Name: "ScorePearson", Procs: 4, Iterations: 343012,
				Metrics: map[string]float64{"ns/op": 3493, "B/op": 120, "allocs/op": 3}}},
		// At GOMAXPROCS 1 the harness prints no procs suffix.
		{line: "BenchmarkItemMean   42603901   28.69 ns/op",
			want: row{Name: "ItemMean", Procs: 1, Iterations: 42603901, Metrics: map[string]float64{"ns/op": 28.69}}},
		{line: "BenchmarkIncrementalSubmitScore/pop=1000-2   2000   2715 ns/op   291 B/op   5 allocs/op",
			want: row{Name: "IncrementalSubmitScore/pop=1000", Procs: 2, Iterations: 2000,
				Metrics: map[string]float64{"ns/op": 2715, "B/op": 291, "allocs/op": 5}}},
		// Only the last dash-number is the procs suffix.
		{line: "BenchmarkFramesSince/lag=2048/max-512-8   100   1.5e+06 ns/op",
			want: row{Name: "FramesSince/lag=2048/max-512", Procs: 8, Iterations: 100, Metrics: map[string]float64{"ns/op": 1.5e6}}},
		{line: "BenchmarkFramesSince/warm-up   100   7 ns/op",
			want: row{Name: "FramesSince/warm-up", Procs: 1, Iterations: 100, Metrics: map[string]float64{"ns/op": 7}}},
		// Custom b.ReportMetric pairs land beside the standard units.
		{line: "BenchmarkScenarioEngineGolden-2   3   48451076 ns/op   660.5 rounds/s   6604725 agentrounds/s   5007 requests/round   138741 B/op   681 allocs/op",
			want: row{Name: "ScenarioEngineGolden", Procs: 2, Iterations: 3, Metrics: map[string]float64{
				"ns/op": 48451076, "rounds/s": 660.5, "agentrounds/s": 6604725, "requests/round": 5007, "B/op": 138741, "allocs/op": 681}}},
		// Bare headers, failures, odd field counts and harness chatter are
		// not results.
		{line: "BenchmarkIncrementalSubmitScore"},
		{line: "BenchmarkIncrementalSubmitScore/pop=1000-2"},
		{line: "--- FAIL: BenchmarkSubmit-2 (0.00s)"},
		{line: "BenchmarkSubmit-2   100   537.7 ns/op   264"},
		{line: "BenchmarkSubmit-2   started   after warm-up"},
		{line: "ok  \twstrust/internal/trust/cf\t3.2s"},
		{line: "goos: linux"},
		{line: "BenchmarkSubmit-2   100   fast ns/op", wantErr: true},
	} {
		got, ok, err := parseLine("./internal/trust/cf", tc.line)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseLine(%q) error = %v, want error %v", tc.line, err, tc.wantErr)
			continue
		}
		if tc.want.Name == "" {
			if ok {
				t.Errorf("parseLine(%q) = %+v, want no result", tc.line, got)
			}
			continue
		}
		tc.want.Package = "./internal/trust/cf"
		if !ok || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseLine(%q) = %+v, %v; want %+v", tc.line, got, ok, tc.want)
		}
	}
}

func TestTolerance(t *testing.T) {
	for _, tc := range []struct{ floor, want float64 }{
		{0, 0.10}, {0.04, 0.10}, {0.05, 0.10}, {0.06, 0.12}, {0.3354, 0.6708},
	} {
		if got := tolerance(tc.floor); got != tc.want {
			t.Errorf("tolerance(%g) = %g, want %g", tc.floor, got, tc.want)
		}
	}
	// The floor is the largest delta in either direction between the two
	// runs, over the rows both carry.
	run1 := []row{bench("p", "A", 1, 100), bench("p", "B", 1, 200), bench("p", "C", 1, 50)}
	run2 := []row{bench("p", "A", 1, 110), bench("p", "B", 1, 150)}
	if got := maxDelta(run1, run2); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("maxDelta = %g, want 1/3 (B: 200 vs 150 ns/op)", got)
	}
}

// TestCheckFlagsOnlyRegressionsAboveTolerance: with a quiet machine the
// tolerance is 10%; faster rows, rows within it and fresh rows with no
// baseline pass.
func TestCheckFlagsOnlyRegressionsAboveTolerance(t *testing.T) {
	base := []row{
		bench("./internal/core", "RankSession", 1, 1000),
		bench("./internal/core", "RankSession", 4, 400),
		bench("./internal/trust/cf", "ScorePearson", 1, 3000),
		bench(".", "SuiteSequential", 1, 5e9),
	}
	fresh := []row{
		bench("./internal/core", "RankSession", 1, 1200),      // +20% → flagged
		bench("./internal/core", "RankSession", 4, 430),       // +7.5% → within tolerance
		bench("./internal/trust/cf", "ScorePearson", 1, 2900), // faster
		bench(".", "SuiteSequential", 1, 5.4e9),               // +8% → within tolerance
		bench("./internal/core", "EngineRank", 1, 100),        // no baseline row → skipped
	}
	var out bytes.Buffer
	if n := check(&out, base, fresh, fresh); n != 1 {
		t.Fatalf("failures = %d, want 1:\n%s", n, out.String())
	}
	var flagged []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasSuffix(line, "REGRESSION") {
			flagged = append(flagged, strings.Fields(line)[0])
		}
	}
	if !reflect.DeepEqual(flagged, []string{"./internal/core/RankSession-1"}) {
		t.Fatalf("flagged %v, want only RankSession-1:\n%s", flagged, out.String())
	}
	if !strings.Contains(out.String(), "tolerance 10.0%") || strings.Count(out.String(), " ns/op (") != 4 {
		t.Fatalf("want the tolerance and all 4 compared rows printed:\n%s", out.String())
	}
}

// TestCheckSkipsBaselineRowsTheGateDoesNotRun: a gate run carries only a
// cheap subset of its entry. The entry's other rows are skipped, not
// treated as regressions, and the rows the run does carry are compared.
func TestCheckSkipsBaselineRowsTheGateDoesNotRun(t *testing.T) {
	base := []row{
		bench("./internal/trust/cf", "ScoreSelectionSweep", 1, 100000),
		bench("./internal/trust/cf", "Submit", 1, 500),
		bench(".", "SuiteSequential", 1, 8e9),
	}
	cmps, err := compare(base, []row{bench("./internal/trust/cf", "Submit", 1, 505)})
	if err != nil || len(cmps) != 1 || cmps[0].key != "./internal/trust/cf/Submit-1" {
		t.Fatalf("partial run compared %+v, %v; want only Submit-1", cmps, err)
	}
	fresh := []row{
		bench("./internal/trust/cf", "ScoreSelectionSweep", 1, 130000), // +30% → flagged
		bench("./internal/trust/cf", "Submit", 1, 510),                 // +2% → fine
	}
	var out bytes.Buffer
	if n := check(&out, base, fresh, fresh); n != 1 || !strings.Contains(out.String(), "ScoreSelectionSweep-1") {
		t.Fatalf("failures = %d, want the selection sweep flagged:\n%s", n, out.String())
	}
}

// TestCheckFailsWhenNothingCompares: rows measured at another procs count
// share no key with the baseline, so the gate would check nothing; that
// is a failure, not a pass.
func TestCheckFailsWhenNothingCompares(t *testing.T) {
	base := []row{
		bench("./internal/trust/eigentrust", "IncrementalSubmitScore/pop=1000", 1, 2715),
		bench("./internal/trust/eigentrust", "IncrementalSubmitScore/pop=10000", 1, 2561),
	}
	fresh := []row{
		bench("./internal/trust/eigentrust", "IncrementalSubmitScore/pop=1000", 4, 2700),
		bench("./internal/trust/eigentrust", "IncrementalSubmitScore/pop=10000", 4, 2500),
	}
	if _, err := compare(base, fresh); err == nil {
		t.Fatal("procs-4 rows against a procs-1 baseline compared without error")
	}
	var out bytes.Buffer
	if n := check(&out, base, fresh, fresh); n != 1 || !strings.Contains(out.String(), "FAIL") {
		t.Fatalf("failures = %d, want 1 with a FAIL line:\n%s", n, out.String())
	}
}

// TestCheckWidensToleranceByNoiseFloor: a 30% run-to-run spread widens the
// tolerance to 60%, so a 50% slowdown passes and an 80% one fails.
func TestCheckWidensToleranceByNoiseFloor(t *testing.T) {
	base := []row{bench("p", "A", 1, 100), bench("p", "B", 1, 100)}
	run1 := []row{bench("p", "A", 1, 150), bench("p", "B", 1, 180)}
	run2 := []row{bench("p", "A", 1, 195), bench("p", "B", 1, 180)}
	var out bytes.Buffer
	if n := check(&out, base, run1, run2); n != 1 || !strings.Contains(out.String(), "tolerance 60.0%") {
		t.Fatalf("failures = %d, want only B flagged at a 60%% tolerance:\n%s", n, out.String())
	}
}

// TestLedgerRoundTrip: the committed ledger is exactly what saveLedger
// writes for what loadLedger reads, and it holds every entry the gate
// checks against.
func TestLedgerRoundTrip(t *testing.T) {
	const committed = "../../BENCH_LEDGER.json"
	want, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	l, err := loadLedger(committed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ledger.json")
	if err := saveLedger(path, l); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("load + save changed the committed ledger's bytes")
	}
	for _, s := range gateSets {
		if _, err := baseline(l, s.id, thisMachine()); err != nil {
			t.Errorf("gate set %s: %v", s.name, err)
		}
	}
}

// TestRecord: a job-set run on a machine the ledger knows replaces its
// rows in place; on a new machine it adds an entry. Either way the other
// entries are untouched, and the gate prefers this machine's entry.
func TestRecord(t *testing.T) {
	old := fingerprint{"go1.24.0", "linux", "amd64", 1}
	l := []entry{
		{ID: "cf", Description: "cf", fingerprint: old, Rows: []row{bench("cf", "Submit", 1, 500)}},
		{ID: "incremental", Description: "incremental", fingerprint: old, Rows: []row{
			bench("et", "Incremental/pop=1000", 1, 2715), bench("et", "Cold/pop=1000", 1, 1e7)}},
	}
	snapshot := func() string {
		b, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	l = record(l, "incremental", "ignored for an existing entry", old, []row{
		bench("et", "Incremental/pop=1000", 1, 2600), bench("et", "Incremental/pop=10000", 1, 2500)})
	wantRows := []row{bench("et", "Incremental/pop=1000", 1, 2600), bench("et", "Cold/pop=1000", 1, 1e7),
		bench("et", "Incremental/pop=10000", 1, 2500)}
	if len(l) != 2 || l[1].Description != "incremental" || !reflect.DeepEqual(l[1].Rows, wantRows) {
		t.Fatalf("same fingerprint: ledger = %+v", l)
	}

	history := snapshot()
	now := fingerprint{"go1.24.0", "linux", "amd64", 2}
	l = record(l, "incremental", "fresh", now, []row{bench("et", "Incremental/pop=1000", 2, 2400)})
	if len(l) != 3 || l[2].ID != "incremental" || l[2].fingerprint != now || l[2].Description != "fresh" {
		t.Fatalf("new fingerprint: ledger = %+v", l)
	}
	l3 := l[2]
	l = l[:2]
	if snapshot() != history {
		t.Fatal("a new fingerprint's entry changed the history entries")
	}
	l = append(l, l3)

	for _, tc := range []struct {
		fp   fingerprint
		want int
	}{{now, 2}, {old, 1}, {fingerprint{"go1.25.0", "linux", "arm64", 8}, 1}} {
		got, err := baseline(l, "incremental", tc.fp)
		if err != nil || !reflect.DeepEqual(got, l[tc.want]) {
			t.Errorf("baseline(incremental, %s) = %+v, %v; want entry %d", tc.fp, got, err, tc.want)
		}
	}
	if _, err := baseline(l, "scenario", now); err == nil {
		t.Error("baseline of an absent id returned no error")
	}
}
