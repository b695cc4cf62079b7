// Package simclock provides the deterministic time substrate used by every
// simulated component in wstrust: a virtual clock and seeded random-number
// streams.
//
// All of the trust and reputation experiments in this repository must be
// reproducible from a single seed. To make that possible no component reads
// wall-clock time or the global math/rand source; instead they receive a
// Clock and a *rand.Rand derived from this package.
package simclock

import (
	"fmt"
	"sync"
	"time"
)

// Epoch is the instant at which every simulation starts. The concrete value
// is arbitrary; it only matters that it is fixed so runs are reproducible.
var Epoch = time.Date(2007, time.June, 25, 0, 0, 0, 0, time.UTC)

// Clock supplies the current simulated instant. Components that need time
// (rating timestamps, decay computations, SLA deadlines) accept a Clock so
// they can run against either a virtual clock in tests and experiments or,
// in principle, real time.
type Clock interface {
	// Now reports the current simulated instant.
	Now() time.Time
}

// Virtual is a manually advanced Clock. The zero value is not usable; use
// NewVirtual. Virtual is safe for concurrent use.
type Virtual struct {
	mu  sync.Mutex
	now time.Time // guarded by mu
}

// NewVirtual returns a Virtual clock positioned at Epoch.
func NewVirtual() *Virtual {
	return &Virtual{now: Epoch}
}

// Now reports the current simulated instant.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Advance moves the clock forward by d. Advancing by a negative duration is
// a programming error and panics: simulated time never runs backwards.
func (v *Virtual) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simclock: Advance by negative duration %v", d))
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.now = v.now.Add(d)
}

// Fixed returns a Clock frozen at t, convenient in unit tests.
func Fixed(t time.Time) Clock { return fixedClock(t) }

type fixedClock time.Time

// Now implements Clock.
func (f fixedClock) Now() time.Time { return time.Time(f) }
