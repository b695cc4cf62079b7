package benchfmt

import (
	"path/filepath"
	"testing"
)

func bench(pkg, name string, procs int, nsop float64) Result {
	return Result{Package: pkg, Name: name, Procs: procs, Iterations: 100,
		Metrics: map[string]float64{"ns/op": nsop}}
}

func TestDiffFlagsOnlyHotPathRegressions(t *testing.T) {
	old := Document{Benchmarks: []Result{
		bench("./internal/core", "RankSession", 1, 1000),
		bench("./internal/core", "RankSession", 4, 400),
		bench("./internal/trust/cf", "ScorePearson", 1, 3000),
		bench(".", "SuiteSequential", 1, 5e9),
		bench("./internal/registry", "SubmitMemSharded", 4, 900), // not a hot path
	}}
	new := Document{Benchmarks: []Result{
		bench("./internal/core", "RankSession", 1, 1200),          // +20% → flagged
		bench("./internal/core", "RankSession", 4, 430),           // +7.5% → within tolerance
		bench("./internal/trust/cf", "ScorePearson", 1, 2900),     // faster
		bench(".", "SuiteSequential", 1, 5.4e9),                   // +8% → within tolerance
		bench("./internal/registry", "SubmitMemSharded", 4, 5000), // not guarded
		bench("./internal/core", "EngineRank", 1, 100),            // only in new → skipped
	}}
	regs := Diff(old, new, DefaultHotPaths, 0.10)
	if len(regs) != 1 {
		t.Fatalf("regressions = %+v, want exactly the RankSession-1 one", regs)
	}
	if regs[0].What != "./internal/core/RankSession-1 ns/op" {
		t.Fatalf("flagged %q", regs[0].What)
	}
	if regs[0].Change < 0.19 || regs[0].Change > 0.21 {
		t.Fatalf("change = %g", regs[0].Change)
	}
}

func TestLegacyHotPathsGateCfOnly(t *testing.T) {
	old := Document{Benchmarks: []Result{
		bench("./internal/trust/cf", "ScoreSelectionSweep", 1, 100000),
		bench("./internal/trust/cf", "Submit", 1, 500),
		bench(".", "SuiteSequential", 1, 8e9),
	}}
	new := Document{Benchmarks: []Result{
		bench("./internal/trust/cf", "ScoreSelectionSweep", 1, 130000), // +30% → flagged
		bench("./internal/trust/cf", "Submit", 1, 510),                 // +2% → fine
		bench(".", "SuiteSequential", 1, 12e9),                         // not a legacy path
	}}
	regs := Diff(old, new, LegacyHotPaths, 0.10)
	if len(regs) != 1 || regs[0].What != "./internal/trust/cf/ScoreSelectionSweep-1 ns/op" {
		t.Fatalf("regressions = %+v, want exactly the selection sweep", regs)
	}
	// A gate run carries only the cf subset; the record's suite rows must
	// be skipped, not treated as regressions.
	gateRun := Document{Benchmarks: []Result{
		bench("./internal/trust/cf", "Submit", 1, 505),
	}}
	if regs := Diff(old, gateRun, LegacyHotPaths, 0.10); len(regs) != 0 {
		t.Fatalf("partial gate run flagged %+v", regs)
	}
}

func TestDiffLoadTestP99(t *testing.T) {
	mk := func(submitP99, rankP99 float64) LoadTest {
		return LoadTest{Label: "mix", GOMAXPROCS: 4, TargetRPS: 2000,
			Submit: &LoadOp{P99Ms: submitP99}, Rank: &LoadOp{P99Ms: rankP99}}
	}
	old := Document{LoadTests: []LoadTest{mk(8, 2)}}
	new := Document{LoadTests: []LoadTest{mk(8.5, 3)}}
	regs := Diff(old, new, nil, 0.10)
	if len(regs) != 1 {
		t.Fatalf("regressions = %+v, want only the rank p99 one", regs)
	}
	if regs[0].What != "loadtest mix@4 rank p99_ms" {
		t.Fatalf("flagged %q", regs[0].What)
	}
}

func TestMergeLoadTestReplacesSameRun(t *testing.T) {
	var doc Document
	doc.MergeLoadTest(LoadTest{Label: "mix", GOMAXPROCS: 1, TargetRPS: 100})
	doc.MergeLoadTest(LoadTest{Label: "mix", GOMAXPROCS: 4, TargetRPS: 100})
	doc.MergeLoadTest(LoadTest{Label: "mix", GOMAXPROCS: 1, TargetRPS: 200}) // replaces
	if len(doc.LoadTests) != 2 {
		t.Fatalf("load tests = %+v", doc.LoadTests)
	}
	if doc.LoadTests[0].TargetRPS != 200 || doc.LoadTests[0].GOMAXPROCS != 1 {
		t.Fatalf("replacement failed: %+v", doc.LoadTests[0])
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	doc := Document{
		Description: "test",
		GoVersion:   "go1.24",
		Benchmarks:  []Result{bench(".", "SuiteSequential", 1, 5e9)},
		LoadTests:   []LoadTest{{Label: "mix", GOMAXPROCS: 2, Submit: &LoadOp{Count: 10, P99Ms: 1.5}}},
	}
	if err := Save(path, doc); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Benchmarks[0].Metrics["ns/op"] != 5e9 || got.LoadTests[0].Submit.P99Ms != 1.5 {
		t.Fatalf("round trip lost data: %+v", got)
	}
}
