package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"wstrust/internal/lint"
)

// TestSmoke runs the -smoke benchmark end to end against freshly built
// wsxd and wsxsim binaries: every workload's end-to-end run, the knee
// search of one serving workload, and the traced run of one serving
// workload and of the simulator. It is how a broken harness shows up in
// `go test`.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/wsxd and cmd/wsxsim and runs them")
	}
	e, err := newEnv(7, 1, true, false)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	rep := &report{prefixed: true}
	// measure runs one workload and returns how many requests or runs it
	// attempted; the summary of a run must count at least one.
	measure := func(w *benchWorkload, kind string) uint64 {
		before := rep.attempted
		if err := e.measure(w, rep); err != nil {
			t.Fatalf("%s %s: %v", kind, w.name, err)
		}
		if rep.attempted == before {
			t.Errorf("%s %s attempted nothing", kind, w.name)
		}
		return rep.attempted - before
	}
	// The knee search runs on rank-heavy, whose empty store boots fastest:
	// its attempts are the reference run's window and each other rung's.
	const laddered = "rank-heavy"
	for i := range workloads {
		w := &workloads[i]
		e.ladder = w.name == laddered
		got := measure(w, "end-to-end")
		if !e.ladder {
			continue
		}
		want := 0
		for _, p := range e.refPlans(w.serve) {
			want += p.count() - p.warm()
		}
		for _, rate := range w.serve.ladder {
			if rate != w.serve.ref {
				p := e.rungPlan(w.serve, rate)
				want += p.count() - p.warm()
			}
		}
		if got != uint64(want) {
			t.Errorf("%s with the knee search attempted %d requests, want %d", w.name, got, want)
		}
	}
	e.ladder = false
	traced := []string{"trust-ingest", "sim-offline"}
	e.spans = filepath.Join(t.TempDir(), "spans.json")
	for _, name := range traced {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		measure(w, "traced")
	}
	if err := rep.writeSpans(e.spans); err != nil {
		t.Fatal(err)
	}

	for _, p := range rep.problems {
		t.Error(p)
	}
	if err := rep.finite(); err != nil {
		t.Error(err)
	}
	if rep.failed != 0 {
		t.Errorf("attempted %d, failed %d", rep.attempted, rep.failed)
	}
	for _, w := range workloads {
		for _, m := range e2eMetrics {
			if got, ok := rep.metrics[w.name+"."+m[0]]; !ok || got.Unit != m[1] {
				t.Errorf("%s: end-to-end metric %s missing or not in %s: %+v", w.name, m[0], m[1], got)
			}
		}
	}
	for _, name := range traced {
		for _, l := range layerNames {
			if _, ok := rep.metrics[name+"."+l[0]]; !ok {
				t.Errorf("%s: per-layer metric %s missing", name, l[0])
			}
		}
	}
	data, err := os.ReadFile(e.spans)
	if err != nil {
		t.Fatal(err)
	}
	var spans []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
		t.Errorf("span file holds %d spans: %v", len(spans), err)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names the workloads and
// metrics this driver reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	for i := range min(len(b.Workloads), len(workloads)) {
		if b.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s here", i, b.Workloads[i].Name, workloads[i].name)
		}
	}
	same := func(kind string, got []named, want [][2]string) {
		if len(got) != len(want) {
			t.Errorf("%d %s metrics in BENCHMARK.json, %d here", len(got), kind, len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i].Name != want[i][0] || got[i].Unit != want[i][1] {
				t.Errorf("%s metric %d is %s %s in BENCHMARK.json, %s %s here", kind, i, got[i].Name, got[i].Unit, want[i][0], want[i][1])
			}
		}
	}
	same("end-to-end", b.EndToEnd, e2eMetrics)
	same("per-layer", b.PerLayer, layerNames)
}

// TestLintClean holds this module to the repository's wsxlint rules. The
// root module scopes some analyzers to packages they guard (errdrop to
// persistence, goleak to serving); here every analyzer checks every
// package.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("wsxlint loads and type-checks the module")
	}
	var analyzers []*lint.Analyzer
	for _, a := range lint.All() {
		everywhere := *a
		everywhere.Applies = nil
		analyzers = append(analyzers, &everywhere)
	}
	diags, err := lint.LoadAndRun("..", []string{"./..."}, analyzers)
	if err != nil {
		t.Fatalf("wsxlint failed to load the module: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
