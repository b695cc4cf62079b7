package fault

import (
	"reflect"
	"testing"
	"time"

	"wstrust/internal/p2p"
	"wstrust/internal/simclock"
)

func TestWindowContains(t *testing.T) {
	w := Window{From: 5, To: 9}
	for round, want := range map[int]bool{4: false, 5: true, 8: true, 9: false} {
		if got := w.Contains(round); got != want {
			t.Errorf("Contains(%d) = %v, want %v", round, got, want)
		}
	}
}

func TestProfileEnabled(t *testing.T) {
	if (Profile{}).Enabled() {
		t.Fatal("zero profile must be disabled")
	}
	cases := []Profile{
		{DropRate: 0.1},
		{DuplicateRate: 0.1},
		{MeanDelay: time.Millisecond},
		{ChurnRate: 0.1},
		{Outages: []Window{{From: 1, To: 2}}},
	}
	for i, p := range cases {
		if !p.Enabled() {
			t.Errorf("case %d: profile %v should be enabled", i, p)
		}
	}
}

func TestProfileString(t *testing.T) {
	if got := (Profile{}).String(); got != "none" {
		t.Fatalf("zero profile String() = %q, want none", got)
	}
	p := Profile{Name: "x", DropRate: 0.1, DuplicateRate: 0.05,
		MeanDelay: 20 * time.Millisecond, Timeout: 100 * time.Millisecond,
		ChurnRate: 0.1, RejoinRate: 0.5, Outages: []Window{{From: 3, To: 7}}}
	got := p.String()
	for _, want := range []string{"x", "drop=0.1", "dup=0.05", "delay=20ms",
		"timeout=100ms", "churn=0.1/rejoin=0.5", "outage=3-7"} {
		if !contains(got, want) {
			t.Errorf("String() = %q missing %q", got, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestParseProfilePresets(t *testing.T) {
	for _, preset := range Presets() {
		got, err := ParseProfile(preset.Name)
		if err != nil {
			t.Fatalf("ParseProfile(%q): %v", preset.Name, err)
		}
		if !reflect.DeepEqual(got, preset) {
			t.Errorf("ParseProfile(%q) = %+v, want the preset %+v", preset.Name, got, preset)
		}
		if !got.Enabled() {
			t.Errorf("preset %q must be enabled", preset.Name)
		}
	}
	for _, s := range []string{"", "none", "  none  "} {
		got, err := ParseProfile(s)
		if err != nil || got.Enabled() {
			t.Errorf("ParseProfile(%q) = %+v, %v; want disabled zero profile", s, got, err)
		}
	}
}

func TestParseProfileKeyValue(t *testing.T) {
	p, err := ParseProfile("drop=0.1,dup=0.05,delay=20ms,timeout=100ms,churn=0.2,rejoin=0.6,outage=5-9,attempts=4")
	if err != nil {
		t.Fatal(err)
	}
	if p.DropRate != 0.1 || p.DuplicateRate != 0.05 || p.MeanDelay != 20*time.Millisecond ||
		p.Timeout != 100*time.Millisecond || p.ChurnRate != 0.2 || p.RejoinRate != 0.6 {
		t.Errorf("rates wrong: %+v", p)
	}
	if len(p.Outages) != 1 || p.Outages[0] != (Window{From: 5, To: 9}) {
		t.Errorf("outages wrong: %+v", p.Outages)
	}
	if p.Retry.MaxAttempts != 4 {
		t.Errorf("attempts wrong: %+v", p.Retry)
	}

	// Churn without an explicit rejoin rate gets a default so the
	// population does not drain monotonically.
	p, err = ParseProfile("churn=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if p.RejoinRate <= 0 {
		t.Errorf("churn-only profile must default RejoinRate, got %+v", p)
	}
}

func TestParseProfileErrors(t *testing.T) {
	for _, s := range []string{
		"bogus",         // not a preset, not key=value
		"drop=2",        // probability out of range
		"drop=x",        // not a float
		"delay=-5ms",    // negative duration
		"delay=nope",    // not a duration
		"attempts=0",    // below 1
		"attempts=x",    // not an int
		"outage=9-5",    // reversed window
		"outage=5",      // missing TO
		"volume=eleven", // unknown key
	} {
		if _, err := ParseProfile(s); err == nil {
			t.Errorf("ParseProfile(%q) should fail", s)
		}
	}
}

func TestInjectorDeterministicAndCounted(t *testing.T) {
	p := Profile{DropRate: 0.3, DuplicateRate: 0.2, MeanDelay: 10 * time.Millisecond,
		Timeout: 30 * time.Millisecond}
	run := func() ([]p2p.LinkFault, Stats) {
		in := NewInjector(42, p, nil)
		var faults []p2p.LinkFault
		for i := 0; i < 200; i++ {
			faults = append(faults, in.Cut("a", "b", "q"))
			faults = append(faults, in.Cut("b", "c", "q"))
		}
		return faults, in.Stats()
	}
	f1, s1 := run()
	f2, s2 := run()
	if !reflect.DeepEqual(f1, f2) {
		t.Fatal("same seed must replay the same fault pattern")
	}
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	if s1.Requests != 400 {
		t.Errorf("Requests = %d, want 400", s1.Requests)
	}
	if s1.DroppedRequests == 0 || s1.DroppedReplies == 0 || s1.Duplicated == 0 {
		t.Errorf("at 30%% drop / 20%% dup over 400 attempts every class should fire: %+v", s1)
	}
	if s1.Lost() != s1.DroppedRequests+s1.DroppedReplies+s1.TimedOut {
		t.Errorf("Lost() inconsistent: %+v", s1)
	}
}

func TestInjectorPerLinkStreamsIndependent(t *testing.T) {
	p := Profile{DropRate: 0.3}
	// Pattern on link a→b must not depend on how much traffic b→c carries.
	seq := func(extra int) []p2p.LinkFault {
		in := NewInjector(7, p, nil)
		var out []p2p.LinkFault
		for i := 0; i < 50; i++ {
			for j := 0; j < extra; j++ {
				in.Cut("b", "c", "q")
			}
			out = append(out, in.Cut("a", "b", "q"))
		}
		return out
	}
	if !reflect.DeepEqual(seq(0), seq(5)) {
		t.Fatal("traffic on one link perturbed another link's fault stream")
	}
}

func TestInjectorZeroProfileIsTransparent(t *testing.T) {
	in := NewInjector(42, Profile{}, nil)
	for i := 0; i < 100; i++ {
		if cut := in.Cut("a", "b", "q"); cut != (p2p.LinkFault{}) {
			t.Fatalf("zero profile injected a fault: %+v", cut)
		}
	}
	s := in.Stats()
	if s.Lost() != 0 || s.Duplicated != 0 || s.DelayTotal != 0 {
		t.Fatalf("zero profile accounted faults: %+v", s)
	}
}

func TestInjectorDelayAdvancesClock(t *testing.T) {
	clock := simclock.NewVirtual()
	start := clock.Now()
	in := NewInjector(42, Profile{MeanDelay: 10 * time.Millisecond}, clock)
	for i := 0; i < 50; i++ {
		in.Cut("a", "b", "q")
	}
	elapsed := clock.Now().Sub(start)
	if elapsed <= 0 {
		t.Fatal("delivered latency must advance the virtual clock")
	}
	if elapsed != in.Stats().DelayTotal {
		t.Fatalf("clock advanced %v but DelayTotal = %v", elapsed, in.Stats().DelayTotal)
	}
}

func TestInjectorTimeoutLosesSlowMessages(t *testing.T) {
	// Mean delay far above the timeout: nearly everything should time out,
	// and timed-out messages count as losses, not delays.
	in := NewInjector(42, Profile{MeanDelay: time.Second, Timeout: time.Microsecond}, nil)
	for i := 0; i < 100; i++ {
		in.Cut("a", "b", "q")
	}
	s := in.Stats()
	if s.TimedOut < 90 {
		t.Fatalf("TimedOut = %d, want nearly all of 100", s.TimedOut)
	}
}

func TestPolicyScheduleInvariants(t *testing.T) {
	p := Policy{MaxAttempts: 6, Base: 50 * time.Millisecond, Cap: 300 * time.Millisecond, Multiplier: 2}
	for seed := int64(0); seed < 20; seed++ {
		sched := p.Schedule(seed)
		if len(sched) != p.MaxAttempts-1 {
			t.Fatalf("seed %d: len = %d, want %d", seed, len(sched), p.MaxAttempts-1)
		}
		if !reflect.DeepEqual(sched, p.Schedule(seed)) {
			t.Fatalf("seed %d: schedule not deterministic", seed)
		}
		prev := time.Duration(0)
		for i, d := range sched {
			if d < prev {
				t.Fatalf("seed %d: schedule not monotone at %d: %v", seed, i, sched)
			}
			if d > p.Cap {
				t.Fatalf("seed %d: delay %v exceeds cap %v", seed, d, p.Cap)
			}
			if d <= 0 {
				t.Fatalf("seed %d: non-positive delay at %d: %v", seed, i, sched)
			}
			prev = d
		}
	}
	if s := (Policy{MaxAttempts: 1}).Schedule(42); len(s) != 0 {
		t.Fatalf("single-attempt policy wants an empty schedule, got %v", s)
	}
	if s := (Policy{}).Schedule(42); len(s) != 0 {
		t.Fatalf("zero policy wants an empty schedule, got %v", s)
	}
}

func TestRetrierAdvancesVirtualClock(t *testing.T) {
	clock := simclock.NewVirtual()
	start := clock.Now()
	r := DefaultPolicy().Bind(42, clock)
	if r.Attempts() != 3 {
		t.Fatalf("Attempts = %d, want 3", r.Attempts())
	}
	r.Backoff(1)
	r.Backoff(2)
	sched := DefaultPolicy().Schedule(42)
	if w := sched[0] + sched[1]; w <= 0 || clock.Now().Sub(start) != w {
		t.Fatalf("clock moved %v, want the two scheduled delays %v (positive)",
			clock.Now().Sub(start), w)
	}
	// Out-of-range attempts clamp instead of panicking.
	r.Backoff(0)
	r.Backoff(99)

	// A single-attempt policy backs off nowhere even when poked.
	one := Policy{MaxAttempts: 1}.Bind(42, clock)
	before := clock.Now()
	one.Backoff(1)
	if !clock.Now().Equal(before) {
		t.Fatal("single-attempt retrier must not advance the clock")
	}
}

func TestChurnerDeterministicSuspendResume(t *testing.T) {
	build := func() (*p2p.Network, *Churner) {
		net := p2p.NewNetwork()
		for _, id := range []p2p.NodeID{"a", "b", "c", "d", "e", "f"} {
			net.Join(id, func(from p2p.NodeID, kind string, payload any) any {
				return "ok"
			})
		}
		return net, NewChurner(net, 42, Profile{ChurnRate: 0.4, RejoinRate: 0.5})
	}
	run := func() [][]p2p.NodeID {
		_, c := build()
		var trace [][]p2p.NodeID
		for i := 0; i < 20; i++ {
			c.Step()
			trace = append(trace, c.Down())
		}
		return trace
	}
	t1, t2 := run(), run()
	if !reflect.DeepEqual(t1, t2) {
		t.Fatal("same seed must replay the same churn trace")
	}

	net, c := build()
	sawDown := false
	for i := 0; i < 20; i++ {
		c.Step()
		down := c.Down()
		if len(down) > 0 {
			sawDown = true
		}
		alive := 0
		for _, id := range net.Nodes() {
			if net.Alive(id) {
				alive++
			}
		}
		if alive < c.MinAlive {
			t.Fatalf("step %d: alive = %d below MinAlive = %d", i, alive, c.MinAlive)
		}
		if alive+len(down) != 6 {
			t.Fatalf("step %d: alive %d + down %d != 6", i, alive, len(down))
		}
	}
	if !sawDown {
		t.Fatal("40% churn over 20 rounds never suspended anyone")
	}
	down, up := c.Churned()
	if down == 0 || up == 0 {
		t.Fatalf("Churned() = (%d, %d); both transitions should fire", down, up)
	}
	if c.String() == "" {
		t.Fatal("String() should describe the churner")
	}
}

func TestChurnerSuspendedStatePreserved(t *testing.T) {
	net := p2p.NewNetwork()
	calls := map[p2p.NodeID]int{}
	for _, id := range []p2p.NodeID{"a", "b"} {
		id := id
		net.Join(id, func(from p2p.NodeID, kind string, payload any) any {
			calls[id]++
			return calls[id]
		})
	}
	net.Suspend("b")
	if _, err := net.Send("a", "b", "q", nil); err == nil {
		t.Fatal("send to a suspended peer must fail")
	}
	net.Resume("b")
	reply, err := net.Send("a", "b", "q", nil)
	if err != nil {
		t.Fatal(err)
	}
	if reply.(int) != 1 {
		t.Fatalf("resumed handler lost its identity: reply %v", reply)
	}
}

func TestChurnerRepairHooksRunOncePerToggledStep(t *testing.T) {
	net := p2p.NewNetwork()
	for _, id := range []p2p.NodeID{"a", "b", "c", "d"} {
		net.Join(id, func(from p2p.NodeID, kind string, payload any) any {
			return nil
		})
	}
	c := NewChurner(net, 42, Profile{ChurnRate: 1, RejoinRate: 0})
	repairs := 0
	c.OnRepair(func() { repairs++ })
	toggled := c.Step()
	if toggled == 0 || repairs != 1 {
		t.Fatalf("toggled=%d repairs=%d; a toggling step runs hooks exactly once", toggled, repairs)
	}
	// ChurnRate 1 with MinAlive 1 leaves exactly one peer up; with
	// RejoinRate 0 nothing can toggle any more, so hooks stay quiet.
	c.Step()
	if repairs != 1 {
		t.Fatalf("quiet step ran repair hooks (repairs=%d)", repairs)
	}
	if got := len(c.Down()); got != 3 {
		t.Fatalf("MinAlive floor: %d down, want 3 of 4", got)
	}
}

func TestChurnerZeroRateIsInert(t *testing.T) {
	net := p2p.NewNetwork()
	net.Join("a", func(from p2p.NodeID, kind string, payload any) any { return nil })
	c := NewChurner(net, 42, Profile{})
	if c.Step() != 0 || len(c.Down()) != 0 {
		t.Fatal("zero churn rate must be inert")
	}
}
