package registry

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"wstrust/internal/core"
	"wstrust/internal/qos"
	"wstrust/internal/simclock"
	"wstrust/internal/trust/beta"
)

func richFeedback(i int) core.Feedback {
	return core.Feedback{
		Consumer: core.NewConsumerID(i),
		Service:  core.NewServiceID(i % 3),
		Provider: core.NewProviderID(i % 2),
		Context:  "weather",
		Observed: qos.Observation{
			Values:  qos.Vector{qos.ResponseTime: 100 + float64(i)},
			Success: true,
			At:      simclock.Epoch.Add(time.Duration(i) * time.Minute),
		},
		Ratings: map[core.Facet]float64{core.FacetOverall: 0.8, qos.Accuracy: 0.9},
		At:      simclock.Epoch.Add(time.Duration(i) * time.Minute),
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	src := NewStore()
	for i := 0; i < 20; i++ {
		if err := src.Submit(richFeedback(i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}
	dst := NewStore()
	n, err := dst.Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 || dst.Len() != 20 {
		t.Fatalf("imported %d, len %d", n, dst.Len())
	}
	// Spot-check full fidelity on one record.
	fb := replayed(t, dst)[7]
	if fb.Consumer != core.NewConsumerID(7) || fb.Service != core.NewServiceID(1) {
		t.Fatalf("record 7 is %s/%s", fb.Consumer, fb.Service)
	}
	if fb.Provider != core.NewProviderID(1) || fb.Context != "weather" {
		t.Fatalf("identity fields lost: %+v", fb)
	}
	if fb.Ratings[qos.Accuracy] != 0.9 || fb.Observed.Values[qos.ResponseTime] != 107 {
		t.Fatalf("payload lost: %+v", fb)
	}
	if !fb.Observed.Success || !fb.At.Equal(simclock.Epoch.Add(7*time.Minute)) {
		t.Fatalf("metadata lost: %+v", fb)
	}
	if !exportsEqual(t, src, dst) {
		t.Fatal("re-export differs from the export")
	}
}

func TestImportStopsOnGarbage(t *testing.T) {
	src := NewStore()
	_ = src.Submit(richFeedback(1))
	var buf bytes.Buffer
	_ = src.Export(&buf)
	buf.WriteString("{this is not json\n")
	dst := NewStore()
	n, err := dst.Import(&buf)
	if err == nil {
		t.Fatal("garbage accepted")
	}
	if n != 1 {
		t.Fatalf("valid prefix = %d, want 1", n)
	}
}

func TestImportRejectsInvalidRecords(t *testing.T) {
	// Structurally valid JSON, semantically invalid feedback (no consumer).
	dst := NewStore()
	_, err := dst.Import(strings.NewReader(`{"service":"s001","at":"2007-06-25T00:00:00Z"}`))
	if err == nil {
		t.Fatal("invalid record imported")
	}
}

func TestReplayRebuildsMechanism(t *testing.T) {
	st := NewStore()
	for i := 0; i < 15; i++ {
		fb := richFeedback(i)
		if err := st.Submit(fb); err != nil {
			t.Fatal(err)
		}
	}
	mech := beta.New()
	n, err := st.Replay(mech)
	if err != nil || n != 15 {
		t.Fatalf("replay n=%d err=%v", n, err)
	}
	tv, ok := mech.Score(core.Query{Subject: core.NewServiceID(0), Context: "weather", Facet: core.FacetOverall})
	if !ok || tv.Score <= 0.5 {
		t.Fatalf("replayed mechanism empty: %+v ok=%v", tv, ok)
	}
}

func TestExportEmptyStore(t *testing.T) {
	var buf bytes.Buffer
	if err := NewStore().Export(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty export wrote %q", buf.String())
	}
	n, err := NewStore().Import(&buf)
	if err != nil || n != 0 {
		t.Fatalf("empty import n=%d err=%v", n, err)
	}
}
