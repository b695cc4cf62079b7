package loadgen

import (
	"testing"
	"time"

	"wstrust/internal/simclock"
)

// TestPacerOpenLoop drives the pacer on a fake clock: arrivals must keep
// their schedule even when the caller stalls, so post-stall arrivals are
// released immediately with their original (past) due times.
func TestPacerOpenLoop(t *testing.T) {
	now := simclock.Epoch
	slept := time.Duration(0)
	p := NewPacer(100, // 10ms interval
		func() time.Time { return now },
		func(d time.Duration) { slept += d; now = now.Add(d) },
	)
	p.Start()
	due0, i0 := p.Next()
	if i0 != 0 || !due0.Equal(simclock.Epoch) || slept != 0 {
		t.Fatalf("arrival 0: due=%v i=%d slept=%v", due0, i0, slept)
	}
	due1, _ := p.Next()
	if !due1.Equal(simclock.Epoch.Add(10*time.Millisecond)) || slept != 10*time.Millisecond {
		t.Fatalf("arrival 1: due=%v slept=%v", due1, slept)
	}
	// Caller stalls 35ms: arrivals 2 and 3 are overdue and must release
	// without sleeping, keeping their original schedule.
	now = now.Add(35 * time.Millisecond)
	before := slept
	due2, _ := p.Next()
	due3, _ := p.Next()
	if slept != before {
		t.Fatalf("overdue arrivals slept %v", slept-before)
	}
	if !due2.Equal(simclock.Epoch.Add(20*time.Millisecond)) || !due3.Equal(simclock.Epoch.Add(30*time.Millisecond)) {
		t.Fatalf("overdue arrivals rescheduled: %v, %v", due2, due3)
	}
	if lag := p.Behind(); lag != 5*time.Millisecond {
		t.Fatalf("Behind = %v, want 5ms", lag)
	}
}
