package wstrust

import (
	"bytes"
	"strings"
	"testing"
)

func TestNewMechanismNames(t *testing.T) {
	want := "amazon beta beta-personalized cf-cosine cf-pearson ebay epinions " +
		"filter-cluster filter-majority filter-zhang-cohen histos pagerank sporas"
	if got := strings.Join(MechanismNames(), " "); got != want {
		t.Fatalf("MechanismNames() = %s, want %s", got, want)
	}
	for _, name := range MechanismNames() {
		m, err := NewMechanism(name)
		if err != nil {
			t.Fatalf("NewMechanism(%q): %v", name, err)
		}
		if m == nil {
			t.Fatalf("NewMechanism(%q) returned nil", name)
		}
	}
	if _, err := NewMechanism("nope"); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
}

func TestTrees(t *testing.T) {
	if !strings.Contains(TaxonomyTree(), "Dependability") {
		t.Fatal("taxonomy tree broken")
	}
	if !strings.Contains(ClassificationTree(), "eigentrust") {
		t.Fatal("classification tree broken")
	}
}

func TestMarketplaceQuickstartFlow(t *testing.T) {
	m, err := NewMarketplace(WithSeed(7), WithExploration(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterConsumer("alice", Preferences{ResponseTime: 2, Cost: 1, Accuracy: 1}); err != nil {
		t.Fatal(err)
	}
	ids, err := m.PublishSimulated("weather", 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 12 {
		t.Fatalf("published %d", len(ids))
	}
	// Use the marketplace repeatedly; selections must complete and ratings
	// stay in range.
	for i := 0; i < 60; i++ {
		sel, err := m.Use("alice", "weather")
		if err != nil {
			t.Fatal(err)
		}
		if sel.Rating < 0 || sel.Rating > 1 {
			t.Fatalf("rating out of range: %g", sel.Rating)
		}
	}
	// After 60 uses the mechanism knows the chosen services.
	sel, err := m.Use("alice", "weather")
	if err != nil {
		t.Fatal(err)
	}
	tv, known := m.Score("alice", sel.Service, "weather")
	if !known {
		t.Fatal("repeatedly used service unknown to mechanism")
	}
	if tv.Confidence <= 0 {
		t.Fatalf("confidence = %g", tv.Confidence)
	}
	// The engine should be picking a genuinely good service by now.
	if u, ok := m.TrueUtility("alice", sel.Service); !ok || u < 0.5 {
		t.Fatalf("after learning, selected service true utility = %g ok=%v", u, ok)
	}
}

func TestMarketplaceErrors(t *testing.T) {
	m, err := NewMarketplace()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Use("ghost", "weather"); err == nil {
		t.Fatal("unregistered consumer allowed")
	}
	if err := m.RegisterConsumer("bob", Preferences{Cost: -1}); err == nil {
		t.Fatal("invalid preferences accepted")
	}
	if err := m.RegisterConsumer("bob", Preferences{Cost: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Use("bob", "empty-category"); err == nil {
		t.Fatal("empty category allowed")
	}
	if _, ok := m.TrueUtility("bob", "s-none"); ok {
		t.Fatal("oracle for unknown service")
	}
}

func TestMarketplaceCustomMechanism(t *testing.T) {
	inner, err := NewMechanism("ebay")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMarketplace(WithMechanism(inner), WithProviderBootstrap())
	if err != nil {
		t.Fatal(err)
	}
	if m.Mechanism().Name() != "ebay" {
		t.Fatalf("mechanism = %q", m.Mechanism().Name())
	}
}

func TestMarketplaceDeterminism(t *testing.T) {
	run := func() []ServiceID {
		m, _ := NewMarketplace(WithSeed(42), WithExploration(0.2))
		_ = m.RegisterConsumer("a", Preferences{ResponseTime: 1})
		_, _ = m.PublishSimulated("compute", 8)
		var picks []ServiceID
		for i := 0; i < 20; i++ {
			sel, err := m.Use("a", "compute")
			if err != nil {
				t.Fatal(err)
			}
			picks = append(picks, sel.Service)
		}
		return picks
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different marketplaces")
		}
	}
}

func TestMarketplacePublishCustomService(t *testing.T) {
	m, err := NewMarketplace(WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterConsumer("a", Preferences{ResponseTime: 1}); err != nil {
		t.Fatal(err)
	}
	d := ServiceDescription{
		Service:    "s-custom",
		Provider:   "p-custom",
		Name:       "My Weather",
		Category:   "weather",
		Operations: []ServiceOperation{{Name: "Execute"}},
		Advertised: QoSVector{ResponseTime: 90},
	}
	b := ServiceBehavior{True: QoSVector{ResponseTime: 90, Availability: 1}}
	if err := m.PublishService(d, b); err != nil {
		t.Fatal(err)
	}
	sel, err := m.Use("a", "weather")
	if err != nil {
		t.Fatal(err)
	}
	if sel.Service != "s-custom" {
		t.Fatalf("selected %v", sel.Service)
	}
	if !sel.Succeeded || sel.Rating <= 0.5 {
		t.Fatalf("custom service outcome %+v", sel)
	}
	// Invalid descriptions are rejected.
	if err := m.PublishService(ServiceDescription{}, b); err == nil {
		t.Fatal("invalid description published")
	}
}

func TestMarketplaceHistoryRoundTrip(t *testing.T) {
	m, err := NewMarketplace(WithSeed(5), WithExploration(0.2))
	if err != nil {
		t.Fatal(err)
	}
	_ = m.RegisterConsumer("a", Preferences{ResponseTime: 1, Cost: 1})
	if _, err := m.PublishSimulated("compute", 8); err != nil {
		t.Fatal(err)
	}
	var used ServiceID
	for i := 0; i < 30; i++ {
		sel, err := m.Use("a", "compute")
		if err != nil {
			t.Fatal(err)
		}
		used = sel.Service
	}
	var buf bytes.Buffer
	if err := m.ExportHistory(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty export after 30 uses")
	}

	// A brand-new marketplace imports the history: its mechanism knows the
	// services without a single new interaction.
	fresh, err := NewMarketplace(WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	n, err := fresh.ImportHistory(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 30 {
		t.Fatalf("imported %d records", n)
	}
	tv, known := fresh.Score("a", used, "compute")
	if !known || tv.Confidence <= 0 {
		t.Fatalf("replayed mechanism empty: %+v known=%v", tv, known)
	}
	// The history itself round-trips again.
	var buf2 bytes.Buffer
	if err := fresh.ExportHistory(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.Len() == 0 {
		t.Fatal("re-export empty")
	}
}
