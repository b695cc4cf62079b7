package monitor

import (
	"math"
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/qos"
	"wstrust/internal/simclock"
	"wstrust/internal/soa"
)

func newFabric(t *testing.T) *soa.Fabric {
	t.Helper()
	f := soa.NewFabric(simclock.NewVirtual(), simclock.NewRand(11), soa.NewUDDI())
	for i, avail := range []float64{1, 0.5} {
		d := soa.Description{
			Service:    core.NewServiceID(i + 1),
			Provider:   "p001",
			Name:       "svc",
			Category:   "weather",
			Operations: []soa.Operation{{Name: "Probe"}},
			Advertised: qos.Vector{qos.ResponseTime: 100},
		}
		if err := f.Register(d, soa.Behavior{
			True: qos.Vector{qos.ResponseTime: 100, qos.Availability: avail},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestDeployRemoveCosts(t *testing.T) {
	tp := NewThirdParty(newFabric(t))
	if err := tp.Deploy("s001"); err != nil {
		t.Fatal(err)
	}
	if err := tp.Deploy("s001"); err == nil {
		t.Fatal("double deploy accepted")
	}
	if got := tp.Cost(); got != 5 {
		t.Fatalf("cost after deploy = %g", got)
	}
	tp.Remove("s001")
	if got := tp.Cost(); got != 10 {
		t.Fatalf("cost after remove = %g", got)
	}
	tp.Remove("s001") // absent: no-op, no cost
	if got := tp.Cost(); got != 10 {
		t.Fatalf("cost after redundant remove = %g", got)
	}
}

func TestProbeAllAndTrustedReport(t *testing.T) {
	tp := NewThirdParty(newFabric(t))
	if err := tp.Deploy("s001"); err != nil {
		t.Fatal(err)
	}
	if err := tp.Deploy("s002"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if got := tp.ProbeAll(); got != 2 {
			t.Fatalf("ProbeAll reached %d services", got)
		}
	}
	if tp.Probes() != 100 {
		t.Fatalf("Probes = %d", tp.Probes())
	}
	// s001 is always up.
	rep, ok := tp.TrustedReport("s001")
	if !ok {
		t.Fatal("no trusted report for probed service")
	}
	if rep[qos.Availability] != 1 {
		t.Fatalf("s001 availability = %g", rep[qos.Availability])
	}
	if math.Abs(rep[qos.ResponseTime]-100) > 1e-9 {
		t.Fatalf("s001 response time = %g", rep[qos.ResponseTime])
	}
	// s002 is up half the time.
	rep2, ok := tp.TrustedReport("s002")
	if !ok {
		t.Fatal("no trusted report for s002")
	}
	if a := rep2[qos.Availability]; math.Abs(a-0.5) > 0.2 {
		t.Fatalf("s002 availability = %g, want ≈0.5", a)
	}
	if _, ok := tp.TrustedReport("s-none"); ok {
		t.Fatal("report produced for never-probed service")
	}
}

func TestProbeUnknownService(t *testing.T) {
	tp := NewThirdParty(newFabric(t))
	if _, err := tp.Probe("s-missing"); err == nil {
		t.Fatal("probe of unknown service succeeded")
	}
}

func TestSensorsSorted(t *testing.T) {
	tp := NewThirdParty(newFabric(t))
	_ = tp.Deploy("s002")
	_ = tp.Deploy("s001")
	got := tp.Sensors()
	if len(got) != 2 || got[0] != "s001" || got[1] != "s002" {
		t.Fatalf("Sensors = %v", got)
	}
}

// recordingMech scores services from a fixed map and records submissions.
type recordingMech struct {
	scores map[core.EntityID]core.TrustValue
	got    []core.Feedback
}

func (m *recordingMech) Name() string { return "recording" }
func (m *recordingMech) Submit(fb core.Feedback) error {
	m.got = append(m.got, fb)
	return nil
}
func (m *recordingMech) Score(q core.Query) (core.TrustValue, bool) {
	tv, ok := m.scores[q.Subject]
	return tv, ok
}

func TestExplorerSweepsNegativeReputationOnly(t *testing.T) {
	f := newFabric(t)
	mech := &recordingMech{scores: map[core.EntityID]core.TrustValue{
		"s001": {Score: 0.2, Confidence: 1}, // negative reputation → probed
		"s002": {Score: 0.9, Confidence: 1}, // fine → left alone
	}}
	e := NewExplorer(f, mech, 0.5, nil)
	probed, err := e.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(probed) != 1 || probed[0] != "s001" {
		t.Fatalf("probed = %v, want [s001]", probed)
	}
	if len(mech.got) != 1 || mech.got[0].Service != "s001" || mech.got[0].Consumer != "explorer" {
		t.Fatalf("submitted = %+v", mech.got)
	}
	if e.Probes() != 1 || e.Reports() != 1 {
		t.Fatalf("counters probes=%d reports=%d", e.Probes(), e.Reports())
	}
	// s001 is always available → default grading rates it 1: the improved
	// service gains positive reputation, exactly the paper's scenario.
	if got := mech.got[0].Ratings[core.FacetOverall]; got != 1 {
		t.Fatalf("explorer rating = %g, want 1", got)
	}
}

func TestExplorerIgnoresUnknownServices(t *testing.T) {
	f := newFabric(t)
	mech := &recordingMech{scores: map[core.EntityID]core.TrustValue{}}
	e := NewExplorer(f, mech, 0.5, nil)
	probed, err := e.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(probed) != 0 {
		t.Fatalf("unknown services probed: %v", probed)
	}
}
