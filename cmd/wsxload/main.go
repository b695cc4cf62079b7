// Command wsxload is the open-loop load driver for wsxd: it offers a
// fixed request rate (a seeded mix of /submit writes and /rank reads)
// regardless of how fast the server answers, and reports HDR-style
// latency histograms per operation. Latency is measured from each
// request's *scheduled* arrival time, so queueing delay the server causes
// shows up in the percentiles instead of silently throttling the load
// (the coordinated-omission trap closed-loop drivers fall into).
//
// A short run against a local daemon:
//
//	wsxd -addr 127.0.0.1:8080 -data /tmp/wsx &
//	wsxload -addr 127.0.0.1:8080 -rps 2000 -duration 10s -mix 0.5
//
// With -merge the run's report is folded into a BENCH_PR*.json record
// (schema: internal/benchfmt) under the given -label, replacing any
// previous run with the same label and GOMAXPROCS — how scripts/loadtest.sh
// assembles the committed sweep.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"wstrust/internal/benchfmt"
	"wstrust/internal/loadgen"
	"wstrust/internal/simclock"
)

func main() {
	cfg := parseFlags()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "wsxload:", err)
		os.Exit(1)
	}
}

type config struct {
	addr        string
	rps         float64
	conns       int
	duration    time.Duration
	warmup      time.Duration
	mix         float64 // fraction of requests that are submits
	seed        int64
	consumers   int
	queue       int
	label       string
	merge       string
	minGoodput  float64
	recordProcs int
}

func parseFlags() config {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "wsxd host:port")
	flag.Float64Var(&cfg.rps, "rps", 1000, "offered request rate (open loop)")
	flag.IntVar(&cfg.conns, "conns", 16, "concurrent connections (worker goroutines)")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "measured run length")
	flag.DurationVar(&cfg.warmup, "warmup", time.Second, "unmeasured warmup before the run")
	flag.Float64Var(&cfg.mix, "mix", 0.5, "submit fraction of the mix (rest is /rank)")
	flag.Int64Var(&cfg.seed, "seed", 42, "workload seed")
	flag.IntVar(&cfg.consumers, "consumers", 64, "distinct consumer identities")
	flag.IntVar(&cfg.queue, "queue", 4096, "arrival queue bound; overflow counts as dropped")
	flag.StringVar(&cfg.label, "label", "mix", "run label for reports and -merge")
	flag.StringVar(&cfg.merge, "merge", "", "BENCH_PR*.json to fold this run into (created if missing)")
	flag.Float64Var(&cfg.minGoodput, "min-goodput", 0, "exit non-zero unless total goodput (RPS) reaches this")
	flag.IntVar(&cfg.recordProcs, "record-procs", 0, "GOMAXPROCS to record in -merge (the server under test's, when it differs from the driver's; 0 = driver's)")
	flag.Parse()
	return cfg
}

// op is one scheduled request.
type op struct {
	due    time.Time
	submit bool
	body   []byte // submit payload; nil for rank
	url    string
}

// workerStats is one worker's shard of the report; merged after the run.
type workerStats struct {
	submit, rank       loadgen.Histogram
	submitErr, rankErr uint64
}

func run(cfg config) error {
	if cfg.mix < 0 || cfg.mix > 1 {
		return fmt.Errorf("mix %g outside [0,1]", cfg.mix)
	}
	if cfg.conns < 1 || cfg.queue < 1 || cfg.rps <= 0 {
		return fmt.Errorf("conns, queue and rps must be positive")
	}
	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        cfg.conns,
			MaxIdleConnsPerHost: cfg.conns,
			MaxConnsPerHost:     0,
		},
		Timeout: 30 * time.Second,
	}
	base := "http://" + cfg.addr

	services, err := discoverServices(client, base)
	if err != nil {
		return err
	}
	fmt.Printf("wsxload: %d services at %s; offering %.0f rps (%.0f%% submit) on %d conns for %s (+%s warmup), GOMAXPROCS=%d\n",
		len(services), cfg.addr, cfg.rps, cfg.mix*100, cfg.conns, cfg.duration, cfg.warmup, runtime.GOMAXPROCS(0))

	// The generator goroutine owns the seeded RNG and the pacer; workers
	// only do I/O and record into their own shard. Arrivals the bounded
	// queue cannot take (server hopelessly behind) count as drops — the
	// offered load stays open-loop either way.
	clock := simclock.Wall()
	rng := simclock.Stream(cfg.seed, "wsxload")
	queue := make(chan op, cfg.queue)
	stats := make([]workerStats, cfg.conns)
	var droppedSubmit, droppedRank uint64

	var wg sync.WaitGroup
	for w := 0; w < cfg.conns; w++ {
		st := &stats[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range queue {
				elapsed, ok := issue(client, clock, o)
				if o.due.IsZero() {
					continue // warmup: unmeasured
				}
				h, errs := &st.rank, &st.rankErr
				if o.submit {
					h, errs = &st.submit, &st.submitErr
				}
				if !ok {
					*errs++
					continue
				}
				h.RecordDuration(elapsed)
			}
		}()
	}

	makeOp := func(warmup bool) op {
		o := op{submit: rng.Float64() < cfg.mix}
		consumer := fmt.Sprintf("load-c%03d", rng.Intn(cfg.consumers))
		if o.submit {
			svc := services[rng.Intn(len(services))]
			body, _ := json.Marshal(map[string]any{
				"consumer": consumer,
				"service":  svc,
				"provider": "load-p001",
				"context":  "compute",
				"rating":   0.5 + 0.5*rng.Float64(),
			})
			o.body = body
			o.url = base + "/submit"
		} else {
			o.url = base + "/rank?n=5&consumer=" + consumer
		}
		if warmup {
			o.due = time.Time{}
		}
		return o
	}

	// Warmup at the target rate, unmeasured: fills connection pools and
	// the server's caches so the measured window starts steady.
	if cfg.warmup > 0 {
		wp := loadgen.NewPacer(cfg.rps, clock.Now, simclock.SleepWall)
		wp.Start()
		warmEnd := clock.Now().Add(cfg.warmup)
		for clock.Now().Before(warmEnd) {
			wp.Next()
			o := makeOp(true)
			select {
			case queue <- o:
			default:
			}
		}
	}

	pacer := loadgen.NewPacer(cfg.rps, clock.Now, simclock.SleepWall)
	pacer.Start()
	start := clock.Now()
	end := start.Add(cfg.duration)
	sent := 0
	for {
		due, _ := pacer.Next()
		if due.After(end) {
			break
		}
		o := makeOp(false)
		o.due = due
		select {
		case queue <- o:
			sent++
		default:
			if o.submit {
				droppedSubmit++
			} else {
				droppedRank++
			}
		}
	}
	close(queue)
	wg.Wait()
	elapsed := clock.Now().Sub(start)

	return report(cfg, stats, sent, droppedSubmit, droppedRank, elapsed)
}

// issue sends one request and reports latency from its scheduled arrival
// (zero due = warmup, measured from send). ok means HTTP 200.
func issue(client *http.Client, clock simclock.Clock, o op) (time.Duration, bool) {
	from := o.due
	if from.IsZero() {
		from = clock.Now()
	}
	var resp *http.Response
	var err error
	if o.submit {
		resp, err = client.Post(o.url, "application/json", bytes.NewReader(o.body))
	} else {
		resp, err = client.Get(o.url)
	}
	if err != nil {
		return 0, false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	return clock.Now().Sub(from), resp.StatusCode == http.StatusOK
}

// discoverServices asks /rank for the catalog so submits rate real
// services.
func discoverServices(client *http.Client, base string) ([]string, error) {
	resp, err := client.Get(base + "/rank?consumer=load-discover&n=1000")
	if err != nil {
		return nil, fmt.Errorf("discover services: %w (is wsxd running?)", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("discover services: HTTP %d", resp.StatusCode)
	}
	var body struct {
		Ranked []struct {
			Service string `json:"service"`
		} `json:"ranked"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("discover services: %w", err)
	}
	if len(body.Ranked) == 0 {
		return nil, fmt.Errorf("discover services: empty catalog")
	}
	out := make([]string, len(body.Ranked))
	for i, r := range body.Ranked {
		out[i] = r.Service
	}
	return out, nil
}

// report merges the worker shards, prints the human summary, enforces
// -min-goodput, and folds the run into the -merge record when asked.
func report(cfg config, stats []workerStats, sent int, droppedSubmit, droppedRank uint64, elapsed time.Duration) error {
	var submit, rank loadgen.Histogram
	var submitErr, rankErr uint64
	for i := range stats {
		submit.Merge(&stats[i].submit)
		rank.Merge(&stats[i].rank)
		submitErr += stats[i].submitErr
		rankErr += stats[i].rankErr
	}
	good := submit.Count() + rank.Count()
	goodput := float64(good) / elapsed.Seconds()
	achieved := float64(sent) / elapsed.Seconds()
	dropped := droppedSubmit + droppedRank

	fmt.Printf("wsxload: %s: offered %d reqs in %s (%.0f rps achieved, %d dropped at the generator)\n",
		cfg.label, sent, elapsed.Round(time.Millisecond), achieved, dropped)
	fmt.Printf("  goodput %.0f rps (%d ok, %d submit errors, %d rank errors)\n",
		goodput, good, submitErr, rankErr)
	if submit.Count() > 0 {
		fmt.Printf("  submit  %s\n", submit.Summarize())
	}
	if rank.Count() > 0 {
		fmt.Printf("  rank    %s\n", rank.Summarize())
	}

	if cfg.merge != "" {
		procs := cfg.recordProcs
		if procs <= 0 {
			procs = runtime.GOMAXPROCS(0)
		}
		lt := benchfmt.LoadTest{
			Label:       cfg.label,
			GOMAXPROCS:  procs,
			TargetRPS:   cfg.rps,
			AchievedRPS: achieved,
			DurationS:   elapsed.Seconds(),
			SubmitMix:   cfg.mix,
		}
		if submit.Count() > 0 || submitErr > 0 {
			lt.Submit = loadOp(&submit, submitErr, droppedSubmit, elapsed) //lint:immutable still building lt; published by MergeLoadTest below
		}
		if rank.Count() > 0 || rankErr > 0 {
			lt.Rank = loadOp(&rank, rankErr, droppedRank, elapsed) //lint:immutable still building lt; published by MergeLoadTest below
		}
		doc, err := benchfmt.Load(cfg.merge)
		if err != nil {
			if !errors.Is(err, fs.ErrNotExist) {
				return err
			}
			doc = benchfmt.Document{
				Description: "wstrust load-test record; regenerate with `make loadtest`",
				GoVersion:   runtime.Version(),
				GOOS:        runtime.GOOS,
				GOARCH:      runtime.GOARCH,
				NumCPU:      runtime.NumCPU(),
			}
		}
		doc.MergeLoadTest(lt)
		if err := benchfmt.Save(cfg.merge, doc); err != nil {
			return err
		}
		fmt.Printf("wsxload: merged run %q@%d into %s\n", cfg.label, lt.GOMAXPROCS, cfg.merge)
	}

	if cfg.minGoodput > 0 && goodput < cfg.minGoodput {
		return fmt.Errorf("goodput %.0f rps below required %.0f", goodput, cfg.minGoodput)
	}
	return nil
}

// loadOp renders one histogram as the benchfmt per-operation record.
func loadOp(h *loadgen.Histogram, errs, dropped uint64, elapsed time.Duration) *benchfmt.LoadOp {
	s := h.Summarize()
	return &benchfmt.LoadOp{
		Count:      s.Count,
		Errors:     errs,
		Dropped:    dropped,
		GoodputRPS: float64(s.Count) / elapsed.Seconds(),
		P50Ms:      s.P50,
		P90Ms:      s.P90,
		P95Ms:      s.P95,
		P99Ms:      s.P99,
		P999Ms:     s.P999,
		MaxMs:      s.Max,
		MeanMs:     s.Mean,
	}
}
