package soa

import (
	"encoding/xml"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"wstrust/internal/core"
	"wstrust/internal/qos"
	"wstrust/internal/simclock"
)

func sampleDescription() Description {
	return Description{
		Service:  "s001",
		Provider: "p001",
		Name:     "Saskatoon Weather",
		Category: "weather",
		Operations: []Operation{
			{Name: "GetForecast", Input: "city", Output: "forecast"},
		},
		Advertised: qos.Vector{qos.ResponseTime: 120, qos.Availability: 0.99},
		Endpoint:   "sim://s001",
	}
}

func TestDescriptionValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Description)
		wantErr bool
	}{
		{"valid", func(d *Description) {}, false},
		{"no service", func(d *Description) { d.Service = "" }, true},
		{"no provider", func(d *Description) { d.Provider = "" }, true},
		{"no category", func(d *Description) { d.Category = "" }, true},
		{"no operations", func(d *Description) { d.Operations = nil }, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			d := sampleDescription()
			tc.mutate(&d)
			if err := d.Validate(); (err != nil) != tc.wantErr {
				t.Fatalf("Validate() = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestWSDLRoundTrip(t *testing.T) {
	d := sampleDescription()
	data, err := d.MarshalWSDL()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "GetForecast") {
		t.Fatalf("wsdl missing operation: %s", data)
	}
	got, err := UnmarshalWSDL(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Service != d.Service || got.Provider != d.Provider || got.Category != d.Category {
		t.Fatalf("round-trip identity mismatch: %+v", got)
	}
	if len(got.Operations) != 1 || got.Operations[0].Name != "GetForecast" {
		t.Fatalf("round-trip operations = %+v", got.Operations)
	}
	if got.Advertised[qos.ResponseTime] != 120 || got.Advertised[qos.Availability] != 0.99 {
		t.Fatalf("round-trip advertised = %v", got.Advertised)
	}
}

func TestUnmarshalWSDLGarbage(t *testing.T) {
	if _, err := UnmarshalWSDL([]byte("not xml at all <<<")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCandidateConversion(t *testing.T) {
	c := sampleDescription().Candidate()
	if c.Service != "s001" || c.Context != "weather" {
		t.Fatalf("Candidate = %+v", c)
	}
	// Advertised must be a copy.
	c.Advertised[qos.ResponseTime] = 999
	if sampleDescription().Advertised[qos.ResponseTime] != 120 {
		t.Fatal("Candidate shares advertised storage")
	}
}

// TestSOAPRoundTrip round-trips the three envelopes a SOAP exchange with a
// fabric service carries: the request, the success response echoing the
// operation, and the fault a down service answers with.
func TestSOAPRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		env  Envelope
	}{
		{"request", NewRequest("msg-000001", "c001", "GetForecast", "<args/>")},
		{"success", Envelope{
			Header: &Header{MessageID: "msg-000001"},
			Body:   Body{Operation: "GetForecast", Payload: "<result/>"},
		}},
		{"fault", NewFaultResponse("msg-000002", "Server.Unavailable", "service s001 unavailable")},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			data, err := tt.env.Encode()
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeEnvelope(data)
			if err != nil {
				t.Fatal(err)
			}
			want := tt.env
			want.XMLName = xml.Name{Space: soapNS, Local: "Envelope"}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip = %+v (header %+v, fault %+v), want %+v", got, got.Header, got.Body.Fault, want)
			}
			if f := got.Body.Fault; f != nil && !strings.Contains(f.Error(), f.String) {
				t.Fatalf("fault error %q omits %q", f.Error(), f.String)
			}
		})
	}
}

func TestDecodeEnvelopeRejectsWrongRoot(t *testing.T) {
	if _, err := DecodeEnvelope([]byte(`<Envelope xmlns="urn:other"><Body/></Envelope>`)); err == nil {
		t.Fatal("wrong-namespace envelope accepted")
	}
}

func TestUDDIPublishFindGet(t *testing.T) {
	u := NewUDDI()
	d := sampleDescription()
	if err := u.Publish(d); err != nil {
		t.Fatal(err)
	}
	d2 := d
	d2.Service = "s002"
	d2.Name = "Regina Weather"
	if err := u.Publish(d2); err != nil {
		t.Fatal(err)
	}
	d3 := d
	d3.Service = "s003"
	d3.Category = "flights"
	d3.Name = "SkyBooker"
	if err := u.Publish(d3); err != nil {
		t.Fatal(err)
	}

	if u.Len() != 3 {
		t.Fatalf("Len = %d", u.Len())
	}
	weather := u.FindByCategory("weather")
	if len(weather) != 2 || weather[0].Service != "s001" || weather[1].Service != "s002" {
		t.Fatalf("FindByCategory = %+v", weather)
	}
	if got := u.FindByKeyword("sky"); len(got) != 1 || got[0].Service != "s003" {
		t.Fatalf("FindByKeyword = %+v", got)
	}
	if _, ok := u.Get("s002"); !ok {
		t.Fatal("Get missed published service")
	}
	u.Unpublish("s002")
	if _, ok := u.Get("s002"); ok {
		t.Fatal("Get found unpublished service")
	}
	u.Unpublish("s002") // idempotent
	if got := len(u.All()); got != 2 {
		t.Fatalf("All after unpublish = %d", got)
	}
}

func TestUDDIVersion(t *testing.T) {
	u := NewUDDI()
	if u.Version() != 0 {
		t.Fatalf("fresh registry version = %d", u.Version())
	}
	if err := u.Publish(sampleDescription()); err != nil {
		t.Fatal(err)
	}
	afterPublish := u.Version()
	if afterPublish == 0 {
		t.Fatal("Publish did not bump version")
	}
	if u.Version() != afterPublish {
		t.Fatal("read-only calls must not bump version")
	}
	u.Unpublish("s001")
	if u.Version() <= afterPublish {
		t.Fatal("Unpublish did not bump version")
	}
}

func TestUDDIPublishInvalid(t *testing.T) {
	u := NewUDDI()
	if err := u.Publish(Description{}); err == nil {
		t.Fatal("invalid description published")
	}
}

func TestBehaviorStaticSample(t *testing.T) {
	b := Behavior{
		True:   qos.Vector{qos.ResponseTime: 100, qos.Availability: 1},
		Jitter: 0.1,
	}
	rng := simclock.NewRand(1)
	var sum float64
	const n = 2000
	for i := 0; i < n; i++ {
		obs := b.Sample(simclock.Epoch, rng)
		if !obs.Success {
			t.Fatal("availability 1 produced failure")
		}
		sum += obs.Values[qos.ResponseTime]
	}
	mean := sum / n
	if math.Abs(mean-100) > 2 {
		t.Fatalf("sampled mean %g, want ≈100", mean)
	}
}

func TestBehaviorAvailabilityFailures(t *testing.T) {
	b := Behavior{True: qos.Vector{qos.ResponseTime: 100, qos.Availability: 0.3}}
	rng := simclock.NewRand(2)
	fails := 0
	const n = 2000
	for i := 0; i < n; i++ {
		obs := b.Sample(simclock.Epoch, rng)
		if !obs.Success {
			fails++
			if obs.Values[qos.Availability] != 0 {
				t.Fatal("failed observation should report availability 0")
			}
			if _, ok := obs.Values[qos.ResponseTime]; ok {
				t.Fatal("failed observation leaked measurements")
			}
		}
	}
	rate := float64(fails) / n
	if math.Abs(rate-0.7) > 0.05 {
		t.Fatalf("failure rate %g, want ≈0.7", rate)
	}
}

func TestBehaviorOscillating(t *testing.T) {
	b := Behavior{
		True:     qos.Vector{qos.ResponseTime: 100},
		Alt:      qos.Vector{qos.ResponseTime: 500},
		Dynamics: Oscillating,
		Period:   time.Hour,
	}
	if got := b.TrueAt(simclock.Epoch)[qos.ResponseTime]; got != 100 {
		t.Fatalf("phase 0 = %g, want 100", got)
	}
	if got := b.TrueAt(simclock.Epoch.Add(90 * time.Minute))[qos.ResponseTime]; got != 500 {
		t.Fatalf("phase 1 = %g, want 500", got)
	}
	if got := b.TrueAt(simclock.Epoch.Add(121 * time.Minute))[qos.ResponseTime]; got != 100 {
		t.Fatalf("phase 2 = %g, want 100", got)
	}
}

func TestBehaviorImprovingAndDecaying(t *testing.T) {
	imp := Behavior{
		True:     qos.Vector{qos.Accuracy: 0.9},
		Alt:      qos.Vector{qos.Accuracy: 0.1},
		Dynamics: Improving,
		Ramp:     time.Hour,
	}
	if got := imp.TrueAt(simclock.Epoch)[qos.Accuracy]; math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("improving at start = %g, want 0.1", got)
	}
	if got := imp.TrueAt(simclock.Epoch.Add(30 * time.Minute))[qos.Accuracy]; math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("improving midway = %g, want 0.5", got)
	}
	if got := imp.TrueAt(simclock.Epoch.Add(2 * time.Hour))[qos.Accuracy]; math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("improving done = %g, want 0.9", got)
	}
	dec := imp
	dec.Dynamics = Decaying
	if got := dec.TrueAt(simclock.Epoch.Add(2 * time.Hour))[qos.Accuracy]; math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("decayed = %g, want 0.1", got)
	}
}

func TestExaggerate(t *testing.T) {
	truth := qos.Vector{qos.ResponseTime: 200, qos.Availability: 0.8, qos.Throughput: 100}
	adv := Exaggerate(truth, 0.5)
	if got := adv[qos.ResponseTime]; math.Abs(got-200/1.5) > 1e-9 {
		t.Fatalf("exaggerated response time = %g", got)
	}
	if got := adv[qos.Availability]; got != 1 { // capped ratio
		t.Fatalf("exaggerated availability = %g, want cap 1", got)
	}
	if got := adv[qos.Throughput]; got != 150 {
		t.Fatalf("exaggerated throughput = %g", got)
	}
	honest := Exaggerate(truth, 0)
	for id, v := range truth {
		if honest[id] != v {
			t.Fatalf("factor 0 changed %s: %g → %g", id, v, honest[id])
		}
	}
}

// Property: exaggeration never makes a metric look worse.
func TestExaggerateImprovesProperty(t *testing.T) {
	f := func(rt, tp, factor float64) bool {
		rt = 1 + math.Abs(math.Mod(rt, 1000))
		tp = 1 + math.Abs(math.Mod(tp, 1000))
		factor = math.Abs(math.Mod(factor, 3))
		truth := qos.Vector{qos.ResponseTime: rt, qos.Throughput: tp}
		adv := Exaggerate(truth, factor)
		return adv[qos.ResponseTime] <= rt && adv[qos.Throughput] >= tp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func newTestFabric(t *testing.T) (*Fabric, *simclock.Virtual) {
	t.Helper()
	clock := simclock.NewVirtual()
	f := NewFabric(clock, simclock.NewRand(3), NewUDDI())
	if err := f.Register(sampleDescription(), Behavior{
		True: qos.Vector{qos.ResponseTime: 100, qos.Availability: 1},
	}); err != nil {
		t.Fatal(err)
	}
	return f, clock
}

func TestFabricInvokeSuccess(t *testing.T) {
	f, _ := newTestFabric(t)
	res, err := f.Invoke("c001", "s001", "GetForecast")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded() {
		t.Fatalf("invocation faulted: %v", res.Fault)
	}
	if res.Observation.Values[qos.ResponseTime] != 100 {
		t.Fatalf("observation = %v", res.Observation.Values)
	}
	if f.Calls() != 1 || f.Faults() != 0 {
		t.Fatalf("counters calls=%d faults=%d", f.Calls(), f.Faults())
	}
}

func TestFabricInvokeUnavailable(t *testing.T) {
	clock := simclock.NewVirtual()
	f := NewFabric(clock, simclock.NewRand(4), NewUDDI())
	d := sampleDescription()
	if err := f.Register(d, Behavior{True: qos.Vector{qos.Availability: 0}}); err != nil {
		t.Fatal(err)
	}
	res, err := f.Invoke("c001", d.Service, "GetForecast")
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded() {
		t.Fatal("zero-availability service succeeded")
	}
	if res.Observation.Success {
		t.Fatal("observation claims success on fault")
	}
	if res.Fault.Code != "Server.Unavailable" || !strings.Contains(res.Fault.String, string(d.Service)) {
		t.Fatalf("fault = %+v, want Server.Unavailable naming %s", res.Fault, d.Service)
	}
	if f.Faults() != 1 {
		t.Fatalf("faults = %d, want 1", f.Faults())
	}
}

func TestFabricInvokeUnknownService(t *testing.T) {
	f, _ := newTestFabric(t)
	if _, err := f.Invoke("c001", "s-missing", "Op"); err == nil {
		t.Fatal("unknown service did not error")
	}
}

// TestFabricInvokeAllocs bounds the allocations of one successful and one
// faulted call: the sampled observation and the fault, not a message
// encoding, are what an invocation builds.
func TestFabricInvokeAllocs(t *testing.T) {
	const maxAllocs = 16
	clock := simclock.NewVirtual()
	f := NewFabric(clock, simclock.NewRand(6), NewUDDI())
	up, down := sampleDescription(), sampleDescription()
	down.Service = "s002"
	if err := f.Register(up, Behavior{True: qos.Vector{qos.ResponseTime: 100, qos.Availability: 1}, Jitter: 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := f.Register(down, Behavior{True: qos.Vector{qos.ResponseTime: 100, qos.Availability: 0}}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		service core.ServiceID
		ok      bool
	}{{up.Service, true}, {down.Service, false}} {
		var failed bool
		allocs := testing.AllocsPerRun(100, func() {
			res, err := f.Invoke("c001", tc.service, "GetForecast")
			if err != nil || res.Succeeded() != tc.ok {
				failed = true
			}
		})
		if failed {
			t.Fatalf("invoke %s: want success=%v", tc.service, tc.ok)
		}
		if allocs > maxAllocs {
			t.Errorf("invoke %s (success=%v): %.0f allocs, want at most %d", tc.service, tc.ok, allocs, maxAllocs)
		}
	}
}

func TestFabricDeregister(t *testing.T) {
	f, _ := newTestFabric(t)
	f.Deregister("s001")
	if _, err := f.Invoke("c001", "s001", "GetForecast"); err == nil {
		t.Fatal("invocation of deregistered service succeeded")
	}
	if _, ok := f.Behavior("s001"); ok {
		t.Fatal("behaviour survived deregistration")
	}
}

func TestFabricObservationTracksDynamics(t *testing.T) {
	clock := simclock.NewVirtual()
	f := NewFabric(clock, simclock.NewRand(5), NewUDDI())
	d := sampleDescription()
	if err := f.Register(d, Behavior{
		True:     qos.Vector{qos.ResponseTime: 100},
		Alt:      qos.Vector{qos.ResponseTime: 900},
		Dynamics: Oscillating,
		Period:   time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
	res1, _ := f.Invoke("c001", d.Service, "Op")
	clock.Advance(90 * time.Minute)
	res2, _ := f.Invoke("c001", d.Service, "Op")
	if res1.Observation.Values[qos.ResponseTime] != 100 || res2.Observation.Values[qos.ResponseTime] != 900 {
		t.Fatalf("dynamics not visible: %v then %v",
			res1.Observation.Values[qos.ResponseTime], res2.Observation.Values[qos.ResponseTime])
	}
	if !res2.Observation.At.Equal(clock.Now()) {
		t.Fatal("observation timestamp not taken from fabric clock")
	}
}

// Property: WSDL marshal/unmarshal round-trips arbitrary well-formed
// descriptions (identity fields, operations, advertised QoS).
func TestWSDLRoundTripProperty(t *testing.T) {
	sanitize := func(s string) string {
		out := make([]rune, 0, len(s))
		for _, r := range s {
			if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' {
				out = append(out, r)
			}
		}
		if len(out) == 0 {
			return "x"
		}
		if len(out) > 24 {
			out = out[:24]
		}
		return string(out)
	}
	f := func(svc, prov, name, cat, op string, rt, av float64) bool {
		d := Description{
			Service:    core.ServiceID("s-" + sanitize(svc)),
			Provider:   core.ProviderID("p-" + sanitize(prov)),
			Name:       sanitize(name),
			Category:   sanitize(cat),
			Operations: []Operation{{Name: "Op" + sanitize(op), Input: "in", Output: "out"}},
			Advertised: qos.Vector{
				qos.ResponseTime: math.Abs(math.Mod(rt, 1e6)),
				qos.Availability: math.Abs(math.Mod(av, 1)),
			},
		}
		data, err := d.MarshalWSDL()
		if err != nil {
			return false
		}
		got, err := UnmarshalWSDL(data)
		if err != nil {
			return false
		}
		if got.Service != d.Service || got.Provider != d.Provider ||
			got.Name != d.Name || got.Category != d.Category {
			return false
		}
		if len(got.Operations) != 1 || got.Operations[0].Name != d.Operations[0].Name {
			return false
		}
		for id, v := range d.Advertised {
			if math.Abs(got.Advertised[id]-v) > 1e-9*math.Max(1, math.Abs(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUDDIBrowseGate(t *testing.T) {
	u := NewUDDI()
	if err := u.Publish(sampleDescription()); err != nil {
		t.Fatal(err)
	}
	if !u.Available() {
		t.Fatal("ungated registry must be available")
	}
	ds, err := u.Browse()
	if err != nil || len(ds) != 1 {
		t.Fatalf("Browse = %v, %v; want the one published service", ds, err)
	}

	down := true
	u.SetBrowseGate(func() bool { return !down })
	if u.Available() {
		t.Fatal("gate down: Available must be false")
	}
	if _, err := u.Browse(); err != ErrUnavailable {
		t.Fatalf("Browse during outage = %v, want ErrUnavailable", err)
	}
	// Point lookups survive the outage — only discovery is down.
	if _, ok := u.Get("s001"); !ok {
		t.Fatal("Get must stay ungated during an outage")
	}

	down = false
	if _, err := u.Browse(); err != nil {
		t.Fatalf("Browse after recovery: %v", err)
	}
	u.SetBrowseGate(nil)
	if !u.Available() {
		t.Fatal("nil gate restores availability")
	}
}
