package main

import (
	"fmt"
	"strconv"
	"time"
)

// op is one wsxd endpoint the load exercises.
type op int

const (
	opSubmit     op = iota // POST /submit
	opRank                 // GET /rank
	opLocalTrust           // POST /local-trust
	opCompute              // GET /compute-with-stats
	numOps
)

func (o op) String() string {
	return [...]string{"submit", "rank", "localtrust", "compute"}[o]
}

// serveWorkload is one traffic mix offered to a live wsxd, open loop.
type serveWorkload struct {
	mech      string // wsxd -mech
	services  int    // wsxd -services: catalog size, all of it rated
	consumers int    // distinct raters
	preload   int    // records in the store before wsxd boots

	primary, secondary op
	// primaryShare is the fraction of requests that are the primary op,
	// drawn per request from the seed; alternate sends them strictly in
	// turn instead.
	primaryShare float64
	alternate    bool
	batch        int // ratings per /local-trust request

	// ref is the offered rate, requests/s, of the reference runs the
	// end-to-end metrics come from, and refRuns how many there are. Each is
	// a fresh wsxd on a fresh copy of the preload, so their boots also give
	// the set-up time its samples.
	ref     float64
	refRuns int
	// extraBoots more boots of the preload, drained at once, add set-up
	// time samples, so that a slow boot or two moves its median less.
	extraBoots int
	// stallPerRun gives each reference run one compaction, mid-window:
	// the preload leaves enough records in the WAL (primary being the
	// write) that the first falls there. Every window then holds the same
	// work, and its stall is the window's tail.
	stallPerRun bool
	// ladder lists the rates of the knee search, ascending, ref among
	// them; ladderSpan is the window of a ladder rung at a rate.
	ladder     []float64
	ladderSpan func(rate float64) time.Duration

	// limits caps each op's latency at a percentile: the ladder's pass
	// rule. Zero for ops the mix does not send.
	limits [numOps]limit
}

// benchWorkload is one named input set of the benchmark.
type benchWorkload struct {
	name  string
	serve *serveWorkload // nil for the offline simulator workload
}

// wsxd daemon settings shared by every serving workload: the daemon
// defaults, except that the demo-valued shedder is opened up so that it
// does not refuse the offered load.
var wsxdFlags = []string{"-sync-every", "1", "-snapshot-every", strconv.Itoa(compactEvery), "-bulkhead", "8", "-shed-rate", "1e6"}

// conns is the number of HTTP connections the load uses: one per core of
// the 2-core machine the benchmark was defined on, so that the client
// never holds more requests in flight than the server can run.
const conns = 2

// compactEvery is wsxd's -snapshot-every: records between compactions.
const compactEvery = 4096

var workloads = []benchWorkload{
	{
		name: "submit-heavy",
		serve: &serveWorkload{
			mech: "beta", services: 16, consumers: 4096, preload: 65536,
			primary: opSubmit, secondary: opRank, primaryShare: 0.9,
			ref: 1000, refRuns: 5, stallPerRun: true,
			ladder: []float64{500, 1000, 2000, 4000},
			// Ten seconds, or three compaction cycles if that is longer.
			ladderSpan: func(rate float64) time.Duration {
				return max(10*time.Second, time.Duration(3*compactEvery/(0.9*rate)*float64(time.Second)))
			},
			limits: [numOps]limit{opSubmit: {99, 100}, opRank: {99, 25}},
		},
	},
	{
		name: "rank-heavy",
		serve: &serveWorkload{
			mech: "beta", services: 4096, consumers: 4096, preload: 0,
			primary: opRank, secondary: opSubmit, primaryShare: 0.8,
			// 1000/s keeps one core half busy: losing CPU to the host then
			// tips wsxd into a growing backlog. 500/s leaves headroom.
			ref: 500, refRuns: 5, extraBoots: 15, ladder: []float64{500, 1000, 1500, 2000},
			ladderSpan: func(float64) time.Duration { return 15 * time.Second },
			limits:     [numOps]limit{opRank: {99, 25}, opSubmit: {99, 100}},
		},
	},
	{
		name: "trust-ingest",
		serve: &serveWorkload{
			mech: "eigentrust", services: 64, consumers: 4096, preload: 65536,
			primary: opLocalTrust, secondary: opCompute, alternate: true, batch: 256,
			// A compaction of the whole store stalls every request that
			// arrives while it runs, and one falls every 16 batches. At 32/s
			// that is about 40% of the time and one core is half busy, so
			// losing CPU to the host tips wsxd into a backlog. At 24/s
			// 35-40% of requests wait behind a compaction, so the median
			// sits just below the stalled ones and jumps into them when the
			// host slows compaction. At 16/s 17-36% wait, and the median
			// stays inside the unstalled requests.
			ref: 16, refRuns: 3, extraBoots: 6, ladder: []float64{16, 32, 64},
			ladderSpan: func(float64) time.Duration { return 20 * time.Second },
			limits:     [numOps]limit{opLocalTrust: {95, 250}, opCompute: {95, 50}},
		},
	},
	{name: "sim-offline"},
}

func workloadByName(name string) (*benchWorkload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
