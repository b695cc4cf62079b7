package sla

import (
	"strings"
	"testing"

	"wstrust/internal/qos"
	"wstrust/internal/simclock"
)

func TestObligationMet(t *testing.T) {
	tests := []struct {
		name  string
		o     Obligation
		value float64
		want  bool
	}{
		{"lower-better met", Obligation{qos.ResponseTime, 200}, 150, true},
		{"lower-better exact", Obligation{qos.ResponseTime, 200}, 200, true},
		{"lower-better breach", Obligation{qos.ResponseTime, 200}, 201, false},
		{"higher-better met", Obligation{qos.Availability, 0.95}, 0.99, true},
		{"higher-better breach", Obligation{qos.Availability, 0.95}, 0.90, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.o.Met(tc.value); got != tc.want {
				t.Fatalf("Met(%g) = %v, want %v", tc.value, got, tc.want)
			}
		})
	}
}

func TestNegotiateAcceptsComfortableObligations(t *testing.T) {
	advertised := qos.Vector{qos.ResponseTime: 100, qos.Availability: 0.99}
	req := []Obligation{
		{qos.ResponseTime, 200},  // 100*1.1 <= 200 → accepted
		{qos.ResponseTime, 105},  // 100*1.1 > 105 → rejected
		{qos.Availability, 0.89}, // 0.99 >= 0.89*1.1=0.979 → accepted
		{qos.Accuracy, 0.9},      // provider silent on accuracy → skipped
	}
	a, err := Negotiate("sla-1", "c001", "p001", "s001", req, advertised)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Obligations) != 2 {
		t.Fatalf("accepted %d obligations, want 2: %+v", len(a.Obligations), a.Obligations)
	}
	if a.NegotiationCost != 10 || a.PenaltyPerViolation != 1 {
		t.Fatalf("defaults wrong: %+v", a)
	}
}

func TestNegotiateFailsWhenNothingAccepted(t *testing.T) {
	_, err := Negotiate("sla-2", "c001", "p001", "s001",
		[]Obligation{{qos.ResponseTime, 50}}, qos.Vector{qos.ResponseTime: 100})
	if err == nil {
		t.Fatal("impossible negotiation succeeded")
	}
}

func TestAgreementCheck(t *testing.T) {
	a := Agreement{
		ID: "sla-5",
		Obligations: []Obligation{
			{qos.ResponseTime, 200},
			{qos.Availability, 0.95},
		},
	}
	ok := qos.Observation{Success: true, Values: qos.Vector{qos.ResponseTime: 150, qos.Availability: 1}, At: simclock.Epoch}
	if vs := a.Check(ok); len(vs) != 0 {
		t.Fatalf("clean observation produced violations: %+v", vs)
	}
	slow := qos.Observation{Success: true, Values: qos.Vector{qos.ResponseTime: 500, qos.Availability: 1}, At: simclock.Epoch}
	vs := a.Check(slow)
	if len(vs) != 1 || vs[0].Metric != qos.ResponseTime || vs[0].Measured != 500 {
		t.Fatalf("slow observation violations = %+v", vs)
	}
	if !strings.Contains(vs[0].String(), "response-time") {
		t.Fatalf("violation string = %q", vs[0].String())
	}
	failed := qos.Observation{Success: false, At: simclock.Epoch}
	if vs := a.Check(failed); len(vs) != 2 {
		t.Fatalf("failed invocation should breach all obligations, got %+v", vs)
	}
	// Missing metric in observation is not a breach.
	partial := qos.Observation{Success: true, Values: qos.Vector{qos.Availability: 1}, At: simclock.Epoch}
	if vs := a.Check(partial); len(vs) != 0 {
		t.Fatalf("unmeasured metric flagged: %+v", vs)
	}
}

func TestLedgerLifecycle(t *testing.T) {
	l := NewLedger()
	a, err := Negotiate("sla-6", "c001", "p001", "s001",
		[]Obligation{{qos.ResponseTime, 200}}, qos.Vector{qos.ResponseTime: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Register(a); err != nil {
		t.Fatal(err)
	}
	if err := l.Register(a); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if l.SetupCost() != 10 {
		t.Fatalf("SetupCost = %g", l.SetupCost())
	}

	// A matching violation.
	vs := l.Observe("c001", "s001", qos.Observation{Success: true,
		Values: qos.Vector{qos.ResponseTime: 400}, At: simclock.Epoch})
	if len(vs) != 1 {
		t.Fatalf("violations = %+v", vs)
	}
	// Unrelated consumer/service: nothing.
	if vs := l.Observe("c002", "s001", qos.Observation{Success: false}); len(vs) != 0 {
		t.Fatalf("unrelated observe produced %+v", vs)
	}
	if got := l.Penalty("p001"); got != 1 {
		t.Fatalf("Penalty = %g, want 1", got)
	}
	if l.Violations() != 1 {
		t.Fatalf("Violations = %d", l.Violations())
	}
}
