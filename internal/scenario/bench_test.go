package scenario

import (
	"encoding/json"
	"path/filepath"
	"runtime"
	"testing"
)

func loadBenchScenario(b *testing.B, name string) *Scenario {
	b.Helper()
	sc, err := ParseFile(filepath.Join(scenariosDir, name))
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

// benchEngine runs one scenario end to end per iteration. Engine build
// sits outside the timer (Run consumes the engine, so each iteration
// rebuilds), leaving b.Elapsed() to time simulation only — that is what
// the rounds/s and agentrounds/s throughput metrics divide by.
func benchEngine(b *testing.B, name string, workers int) {
	sc := loadBenchScenario(b, name)
	var report *Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, err := New(cloneForBench(b, sc), goldenSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		report = eng.Run(workers)
	}
	if report.Requests == 0 {
		b.Fatal("benchmark simulated no requests")
	}
	sec := b.Elapsed().Seconds()
	rounds := float64(b.N) * float64(sc.Rounds)
	b.ReportMetric(rounds/sec, "rounds/s")
	b.ReportMetric(rounds*float64(sc.Population.Consumers.N)/sec, "agentrounds/s")
	b.ReportMetric(float64(report.Requests)/float64(sc.Rounds), "requests/round")
}

// BenchmarkScenarioEngineMillion is the acceptance benchmark: the
// 10^6-consumer scenario at full parallelism, reporting simulated
// throughput per round (recorded in BENCH_LEDGER.json by make
// bench-scenario).
func BenchmarkScenarioEngineMillion(b *testing.B) {
	benchEngine(b, "million-flash-crowd.json", runtime.NumCPU())
}

// BenchmarkScenarioEngineMillionSerial pins the single-worker baseline so
// the parallel speedup stays measured.
func BenchmarkScenarioEngineMillionSerial(b *testing.B) {
	benchEngine(b, "million-flash-crowd.json", 1)
}

// BenchmarkScenarioEngineGolden runs the full golden-sized cocktail
// scenario — the shape CI exercises — at 4 workers.
func BenchmarkScenarioEngineGolden(b *testing.B) {
	benchEngine(b, "lossy-cocktail.json", 4)
}

func cloneForBench(b *testing.B, sc *Scenario) *Scenario {
	b.Helper()
	data, err := json.Marshal(sc)
	if err != nil {
		b.Fatal(err)
	}
	clone, err := Parse(data)
	if err != nil {
		b.Fatal(err)
	}
	return clone
}
