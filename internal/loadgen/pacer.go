// Package loadgen holds the open-loop arrival pacer that bench/wsxperf
// schedules its requests with. The package is pure computation —
// time sources are injected — so it stays inside the repo's determinism
// lint and is testable without sleeping.
package loadgen

import (
	"time"
)

// Pacer schedules open-loop arrivals: request i is due at start +
// i/RPS, independent of how long earlier requests take. Unlike a
// closed loop (which waits for responses and so hides server slowdown
// by backing off), an open loop keeps the offered rate constant, so
// latency measured from the *scheduled* arrival time exposes queueing
// delay — the coordinated-omission-free number.
//
// Time sources are injected so the pacer itself is deterministic and
// testable; bench/wsxperf wires the real clock in.
type Pacer struct {
	interval time.Duration // time between consecutive arrivals
	start    time.Time
	next     int // index of the next arrival to release

	now   func() time.Time
	sleep func(time.Duration)
}

// NewPacer builds a pacer releasing rps arrivals per second, reading time
// from now and waiting via sleep. rps must be positive.
func NewPacer(rps float64, now func() time.Time, sleep func(time.Duration)) *Pacer {
	if rps <= 0 {
		panic("loadgen: non-positive RPS")
	}
	return &Pacer{
		interval: time.Duration(float64(time.Second) / rps),
		now:      now,
		sleep:    sleep,
	}
}

// Start marks time zero. Arrival i is scheduled at this instant plus
// i × interval.
func (p *Pacer) Start() { p.start = p.now() }

// Next blocks until the next arrival is due and returns its scheduled
// time. If the caller has fallen behind (the due time is already past) it
// returns immediately — the arrival keeps its original schedule, so
// latencies measured from it include the backlog delay. The second result
// is the arrival's index.
func (p *Pacer) Next() (time.Time, int) {
	i := p.next
	p.next++
	due := p.start.Add(time.Duration(i) * p.interval)
	if wait := due.Sub(p.now()); wait > 0 {
		p.sleep(wait)
	}
	return due, i
}

// Behind reports how far the release of arrivals lags the schedule — the
// generator's own backlog, distinct from server latency.
func (p *Pacer) Behind() time.Duration {
	due := p.start.Add(time.Duration(p.next) * p.interval)
	if lag := p.now().Sub(due); lag > 0 {
		return lag
	}
	return 0
}
