package fault

import (
	"time"

	"wstrust/internal/simclock"
)

// Policy is the shared transport retry/timeout/backoff policy the
// decentralized mechanisms run their remote operations under: a bounded
// number of delivery attempts with exponential, seed-jittered backoff in
// virtual time. In the fault-free case the first attempt always succeeds,
// so the policy never fires and per-mechanism message accounting is
// unchanged — which is exactly what the golden-report test enforces.
type Policy struct {
	// MaxAttempts is the total number of delivery attempts (≥ 1; 1 means
	// no retries at all).
	MaxAttempts int
	// Base is the nominal first backoff delay.
	Base time.Duration
	// Cap bounds every backoff delay.
	Cap time.Duration
	// Multiplier grows the nominal delay per retry (≥ 1).
	Multiplier float64
}

// DefaultPolicy is the retry policy the fault presets ship with: three
// attempts, 50ms nominal base, 2s cap, doubling.
func DefaultPolicy() Policy {
	return Policy{MaxAttempts: 3, Base: 50 * time.Millisecond, Cap: 2 * time.Second, Multiplier: 2}
}

// normalized fills defaults so the zero value means "one attempt".
func (p Policy) normalized() Policy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.Base <= 0 {
		p.Base = 50 * time.Millisecond
	}
	if p.Cap < p.Base {
		p.Cap = p.Base
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	return p
}

// Schedule returns the policy's backoff schedule for a seed: one delay per
// retry (MaxAttempts-1 entries). Delays are exponentially growing with a
// seeded jitter in [½, 1] of the nominal value, clamped so the schedule is
// always monotone non-decreasing and bounded by Cap, and the same seed
// always yields the same schedule — the three invariants FuzzFaultPolicy
// hammers.
func (p Policy) Schedule(seed int64) []time.Duration {
	p = p.normalized()
	if p.MaxAttempts <= 1 {
		return nil
	}
	rng := simclock.Stream(seed, "fault.backoff")
	out := make([]time.Duration, 0, p.MaxAttempts-1)
	nominal := float64(p.Base)
	prev := time.Duration(0)
	for k := 0; k < p.MaxAttempts-1; k++ {
		d := nominal
		if d > float64(p.Cap) {
			d = float64(p.Cap)
		}
		jittered := time.Duration(d * (0.5 + 0.5*rng.Float64()))
		if jittered < prev {
			jittered = prev
		}
		if jittered > p.Cap {
			jittered = p.Cap
		}
		out = append(out, jittered)
		prev = jittered
		nominal *= p.Multiplier
	}
	return out
}

// Retrier binds a Policy to a virtual clock: it implements p2p.Retrier,
// advancing the clock by the scheduled backoff between attempts (the
// network never sleeps — backoff is simulated time, per the repo's
// determinism invariants). Safe for concurrent use.
type Retrier struct {
	attempts int
	sched    []time.Duration
	clock    *simclock.Virtual
}

// Bind compiles the policy's schedule for seed and attaches it to clock.
// clock may be nil (backoff then costs no virtual time but attempts still
// bound retries).
func (p Policy) Bind(seed int64, clock *simclock.Virtual) *Retrier {
	n := p.normalized()
	return &Retrier{attempts: n.MaxAttempts, sched: p.Schedule(seed), clock: clock}
}

// Attempts implements p2p.Retrier.
func (r *Retrier) Attempts() int { return r.attempts }

// Backoff implements p2p.Retrier: retry number attempt (1-based) waits the
// scheduled delay in virtual time.
func (r *Retrier) Backoff(attempt int) {
	if len(r.sched) == 0 {
		return
	}
	i := attempt - 1
	if i < 0 {
		i = 0
	}
	if i >= len(r.sched) {
		i = len(r.sched) - 1
	}
	if r.clock != nil {
		r.clock.Advance(r.sched[i])
	}
}
