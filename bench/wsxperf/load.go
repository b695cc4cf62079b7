package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"wstrust/internal/core"
	"wstrust/internal/loadgen"
	"wstrust/internal/simclock"
)

// request is one scheduled call. Arrival i of a rung is due i/rate after
// the rung starts, the same instants loadgen.Pacer releases it at.
type request struct {
	op   op
	path string // URL path and query
	body []byte // POST body; nil for GETs
	n    int    // /rank rows asked for
}

// rating is the /submit body and one entry of a /local-trust batch, as
// cmd/wsxd decodes them.
type rating struct {
	Consumer string  `json:"consumer"`
	Service  string  `json:"service"`
	Provider string  `json:"provider"`
	Context  string  `json:"context"`
	Rating   float64 `json:"rating"`
}

// wsxdCategory is the daemon's default catalog category, the context
// every rating is given in so that it scores the catalog.
const wsxdCategory = "compute"

// population is the workload's raters and rated services; each service
// has a hidden quality its ratings scatter around.
type population struct {
	consumers, services, providers []string
	quality                        []float64
}

func newPopulation(w *serveWorkload, seed int64) *population {
	p := &population{
		consumers: make([]string, w.consumers),
		services:  make([]string, w.services),
		providers: make([]string, w.services),
		quality:   make([]float64, w.services),
	}
	rng := simclock.Stream(seed, "wsxperf/quality")
	for i := range p.consumers {
		p.consumers[i] = string(core.NewConsumerID(i + 1))
	}
	for i := range p.services {
		// The ids wsxd's demo catalog gives service i and its provider.
		p.services[i] = string(core.NewServiceID(i + 1))
		p.providers[i] = string(core.NewProviderID(i + 1))
		p.quality[i] = 0.15 + 0.75*rng.Float64()
	}
	return p
}

func (p *population) rating(rng *rand.Rand) rating {
	s := rng.Intn(len(p.services))
	v := math.Min(1, math.Max(0, p.quality[s]+0.15*rng.NormFloat64()))
	return rating{
		Consumer: p.consumers[rng.Intn(len(p.consumers))],
		Service:  p.services[s],
		Provider: p.providers[s],
		Context:  wsxdCategory,
		Rating:   math.Round(v*1000) / 1000,
	}
}

// schedule draws a rung's requests from the seed: the same seed and rate
// give the same requests, which is what lets the traced run replay the
// reference run in process.
func schedule(w *serveWorkload, pop *population, seed int64, p plan) ([]request, error) {
	rng := simclock.Stream(seed, fmt.Sprintf("wsxperf/schedule/%g", p.rate))
	reqs := make([]request, p.count())
	for i := range reqs {
		o := w.secondary
		if w.alternate && i%2 == 0 || !w.alternate && rng.Float64() < w.primaryShare {
			o = w.primary
		}
		r := request{op: o}
		var err error
		switch o {
		case opSubmit:
			r.path = "/submit"
			r.body, err = json.Marshal(pop.rating(rng))
		case opLocalTrust:
			batch := struct {
				Ratings []rating `json:"ratings"`
			}{make([]rating, w.batch)}
			for j := range batch.Ratings {
				batch.Ratings[j] = pop.rating(rng)
			}
			r.path = "/local-trust"
			r.body, err = json.Marshal(batch)
		case opRank:
			r.n = 5
			r.path = fmt.Sprintf("/rank?consumer=%s&n=%d", pop.consumers[rng.Intn(len(pop.consumers))], r.n)
		case opCompute:
			r.path = "/compute-with-stats"
		}
		if err != nil {
			return nil, err
		}
		reqs[i] = r
	}
	return reqs, nil
}

// records is how many store records an acknowledged request added.
func (w *serveWorkload) records(o op) int {
	switch o {
	case opSubmit:
		return 1
	case opLocalTrust:
		return w.batch
	}
	return 0
}

// loadResult is one rung's client-side record.
type loadResult struct {
	rungResult
	acked        int    // store records added by 2xx-acknowledged writes, warmup included
	payload      uint64 // body bytes of acknowledged writes in the window
	measured     uint64 // requests due in the window
	lag, qwait   latencies
	windowStart  time.Time
	windowEnd    time.Time // last response of the window
	coldComputes int       // /compute-with-stats answers without warmStart
	problems     []string  // correctness failures
}

// worker is one connection's share of a rung.
type worker struct {
	ops          [numOps]latencies
	qwait        latencies
	acked        int
	payload      uint64
	coldComputes int
	problems     []string
	buf          bytes.Buffer
}

// offer runs one rung open loop: requests are released on the pacer's
// schedule whatever the server's speed, queue for one of conns
// connections, and are timed from when they were due. The first warm
// requests warm the server up and are not measured. onWindow runs as the
// first measured request is released.
func offer(base string, w *serveWorkload, reqs []request, rate float64, warm int, onWindow func()) *loadResult {
	clock := simclock.Wall()
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type arrival struct {
		i   int
		due time.Time
	}
	// Two seconds of arrivals: a backlog that deep has blown every latency
	// limit, and what does not fit is dropped and counted as failed.
	queue := make(chan arrival, max(64, int(2*rate)))
	res := &loadResult{rungResult: rungResult{rate: rate}}
	workers := make([]*worker, conns)
	var wg sync.WaitGroup
	for c := range workers {
		wk := &worker{}
		workers[c] = wk
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range queue {
				picked := clock.Now()
				r := &reqs[a.i]
				ok := wk.do(ctx, client, base, w, r)
				if a.i < warm {
					continue
				}
				lat := &wk.ops[r.op]
				if !ok {
					lat.failed++
					continue
				}
				lat.add(clock.Now().Sub(a.due))
				wk.qwait.add(picked.Sub(a.due))
				if n := w.records(r.op); n > 0 {
					wk.payload += uint64(len(r.body))
				}
			}
		}()
	}

	pacer := loadgen.NewPacer(rate, clock.Now, simclock.SleepWall)
	pacer.Start()
	var dropped [numOps]uint64
	for i := range reqs {
		due, _ := pacer.Next()
		if i == warm {
			res.windowStart = clock.Now()
			if onWindow != nil {
				onWindow()
			}
		}
		late := clock.Now().Sub(due)
		if i >= warm {
			res.lag.add(late)
			res.lagEnd = late
		}
		select {
		case queue <- arrival{i, due}:
		default:
			if i >= warm {
				dropped[reqs[i].op]++
			}
		}
	}
	close(queue)
	wg.Wait()
	res.windowEnd = clock.Now()
	res.measured = uint64(len(reqs) - warm)

	for _, wk := range workers {
		for o := range wk.ops {
			res.ops[o].merge(&wk.ops[o])
		}
		res.qwait.merge(&wk.qwait)
		res.acked += wk.acked
		res.payload += wk.payload
		res.coldComputes += wk.coldComputes
		res.problems = append(res.problems, wk.problems...)
	}
	for o, n := range dropped {
		res.ops[o].failed += n
		res.dropped += n
	}
	return res
}

// do sends one request and checks its answer. It reports whether the
// request succeeded; a wrong answer to a successful request is recorded
// as a correctness problem, not a latency failure.
func (wk *worker) do(ctx context.Context, client *http.Client, base string, w *serveWorkload, r *request) bool {
	method, body := http.MethodGet, io.Reader(nil)
	if r.body != nil {
		method, body = http.MethodPost, bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+r.path, body)
	if err != nil {
		wk.problem("%s: %v", r.op, err)
		return false
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	wk.buf.Reset()
	_, rerr := wk.buf.ReadFrom(resp.Body)
	cerr := resp.Body.Close()
	if rerr != nil || cerr != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	if err := wk.check(w, r, wk.buf.Bytes()); err != nil {
		wk.problem("%s %s: %v", r.op, r.path, err)
	}
	return true
}

func (wk *worker) problem(format string, args ...any) {
	if len(wk.problems) < 8 {
		wk.problems = append(wk.problems, fmt.Sprintf(format, args...))
	}
}

// check verifies a 200 answer: writes acknowledge every record, rankings
// have the rows asked for in non-increasing score order, and computes
// carry convergence stats, warm-started after the process's first one.
func (wk *worker) check(w *serveWorkload, r *request, data []byte) error {
	switch r.op {
	case opSubmit, opLocalTrust:
		var ack struct {
			Accepted json.RawMessage `json:"accepted"`
		}
		if err := json.Unmarshal(data, &ack); err != nil {
			return err
		}
		want := "true"
		if r.op == opLocalTrust {
			want = fmt.Sprint(w.batch)
		}
		if string(ack.Accepted) != want {
			return fmt.Errorf("accepted %s, want %s", ack.Accepted, want)
		}
		wk.acked += w.records(r.op)
	case opRank:
		var rk struct {
			Ranked []struct {
				Score float64 `json:"score"`
			} `json:"ranked"`
		}
		if err := json.Unmarshal(data, &rk); err != nil {
			return err
		}
		if want := min(r.n, w.services); len(rk.Ranked) != want {
			return fmt.Errorf("%d rows, want %d", len(rk.Ranked), want)
		}
		for i := 1; i < len(rk.Ranked); i++ {
			if rk.Ranked[i].Score > rk.Ranked[i-1].Score {
				return fmt.Errorf("row %d scores %g above row %d's %g", i, rk.Ranked[i].Score, i-1, rk.Ranked[i-1].Score)
			}
		}
	case opCompute:
		var cs struct {
			Scores []json.RawMessage `json:"scores"`
			Stats  *struct {
				WarmStart bool `json:"warmStart"`
			} `json:"stats"`
		}
		if err := json.Unmarshal(data, &cs); err != nil {
			return err
		}
		if cs.Stats == nil {
			return fmt.Errorf("no convergence stats")
		}
		if len(cs.Scores) != w.services {
			return fmt.Errorf("%d scores, want %d", len(cs.Scores), w.services)
		}
		if !cs.Stats.WarmStart {
			wk.coldComputes++
		}
	}
	return nil
}
