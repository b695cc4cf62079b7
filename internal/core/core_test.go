package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"wstrust/internal/qos"
	"wstrust/internal/simclock"
)

func TestRatingValidate(t *testing.T) {
	base := Rating{Rater: "c001", Subject: "s001", Value: 0.5}
	tests := []struct {
		name    string
		mutate  func(*Rating)
		wantErr bool
	}{
		{"valid", func(r *Rating) {}, false},
		{"value one", func(r *Rating) { r.Value = 1 }, false},
		{"value zero", func(r *Rating) { r.Value = 0 }, false},
		{"over one", func(r *Rating) { r.Value = 1.1 }, true},
		{"negative", func(r *Rating) { r.Value = -0.1 }, true},
		{"nan", func(r *Rating) { r.Value = math.NaN() }, true},
		{"no rater", func(r *Rating) { r.Rater = "" }, true},
		{"no subject", func(r *Rating) { r.Subject = "" }, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r := base
			tc.mutate(&r)
			if err := r.Validate(); (err != nil) != tc.wantErr {
				t.Fatalf("Validate() = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestFeedbackOverall(t *testing.T) {
	fb := Feedback{Consumer: "c001", Service: "s001",
		Ratings: map[Facet]float64{FacetOverall: 0.9, qos.Accuracy: 0.1}}
	if got := fb.Overall(); got != 0.9 {
		t.Fatalf("Overall with explicit facet = %g, want 0.9", got)
	}
	fb2 := Feedback{Consumer: "c001", Service: "s001",
		Ratings: map[Facet]float64{qos.Accuracy: 0.2, qos.ResponseTime: 0.6}}
	if got := fb2.Overall(); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("Overall mean = %g, want 0.4", got)
	}
	fb3 := Feedback{Consumer: "c001", Service: "s001",
		Observed: qos.Observation{Success: true}}
	if got := fb3.Overall(); got != 1 {
		t.Fatalf("Overall success fallback = %g, want 1", got)
	}
	fb4 := Feedback{Consumer: "c001", Service: "s001"}
	if got := fb4.Overall(); got != 0 {
		t.Fatalf("Overall failure fallback = %g, want 0", got)
	}
}

func TestFeedbackRatingsOfDeterministicOrder(t *testing.T) {
	fb := Feedback{
		Consumer: "c001", Service: "s001", Context: "weather",
		Ratings: map[Facet]float64{qos.ResponseTime: 0.7, qos.Accuracy: 0.3, FacetOverall: 0.5},
		At:      simclock.Epoch,
	}
	rs := fb.RatingsOf()
	if len(rs) != 3 {
		t.Fatalf("got %d ratings, want 3", len(rs))
	}
	// Sorted facet order: accuracy < overall < response-time.
	if rs[0].Facet != qos.Accuracy || rs[1].Facet != FacetOverall || rs[2].Facet != qos.ResponseTime {
		t.Fatalf("facet order = %v, %v, %v", rs[0].Facet, rs[1].Facet, rs[2].Facet)
	}
	for _, r := range rs {
		if err := r.Validate(); err != nil {
			t.Fatalf("flattened rating invalid: %v", err)
		}
		if r.Rater != "c001" || r.Subject != "s001" || r.Context != "weather" {
			t.Fatalf("rating fields not propagated: %+v", r)
		}
	}
}

func TestFeedbackValidate(t *testing.T) {
	ok := Feedback{Consumer: "c", Service: "s", Ratings: map[Facet]float64{FacetOverall: 1}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid feedback rejected: %v", err)
	}
	bad := Feedback{Consumer: "c", Service: "s", Ratings: map[Facet]float64{FacetOverall: 2}}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range facet rating accepted")
	}
	missing := Feedback{Service: "s"}
	if err := missing.Validate(); err == nil {
		t.Fatal("feedback without consumer accepted")
	}
}

func TestTrustValueClamp(t *testing.T) {
	v := TrustValue{Score: 1.5, Confidence: -0.2}.Clamp()
	if v.Score != 1 || v.Confidence != 0 {
		t.Fatalf("Clamp = %+v", v)
	}
	n := TrustValue{Score: math.NaN(), Confidence: math.NaN()}.Clamp()
	if n.Score != 0 || n.Confidence != 0 {
		t.Fatalf("Clamp(NaN) = %+v", n)
	}
}

func TestBlend(t *testing.T) {
	a := TrustValue{Score: 1, Confidence: 1}
	b := TrustValue{Score: 0, Confidence: 1}
	got := Blend(a, b)
	if math.Abs(got.Score-0.5) > 1e-12 {
		t.Fatalf("Blend equal confidence = %+v, want score 0.5", got)
	}
	// Zero-confidence partner leaves the other's score intact.
	c := Blend(a, TrustValue{Score: 0, Confidence: 0})
	if c.Score != 1 {
		t.Fatalf("Blend with zero-confidence = %+v", c)
	}
	// No evidence at all: neutral.
	z := Blend(TrustValue{}, TrustValue{})
	if z.Score != 0.5 || z.Confidence != 0 {
		t.Fatalf("Blend of empty = %+v", z)
	}
}

func TestExpDecay(t *testing.T) {
	d := ExpDecay(time.Hour)
	if got := d(0); got != 1 {
		t.Fatalf("decay(0) = %g, want 1", got)
	}
	if got := d(time.Hour); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("decay(halfLife) = %g, want 0.5", got)
	}
	if got := d(2 * time.Hour); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("decay(2*halfLife) = %g, want 0.25", got)
	}
	if got := d(-time.Hour); got != 1 {
		t.Fatalf("decay(negative) = %g, want 1", got)
	}
}

func TestExpDecayPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ExpDecay(0) did not panic")
		}
	}()
	ExpDecay(0)
}

// Property: decay weight is in [0,1] (it may underflow to 0 for extreme
// ages) and non-increasing with age.
func TestExpDecayMonotoneProperty(t *testing.T) {
	d := ExpDecay(30 * time.Minute)
	f := func(a, b uint32) bool {
		x, y := time.Duration(a)*time.Second, time.Duration(b)*time.Second
		if x > y {
			x, y = y, x
		}
		wx, wy := d(x), d(y)
		return wx >= 0 && wx <= 1 && wy <= wx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRecencyWeights(t *testing.T) {
	w := RecencyWeights(3, 0.5)
	want := []float64{0.25, 0.5, 1}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-12 {
			t.Fatalf("RecencyWeights = %v, want %v", w, want)
		}
	}
	if RecencyWeights(0, 0.5) != nil {
		t.Fatal("RecencyWeights(0) should be nil")
	}
	all := RecencyWeights(4, 1)
	for _, v := range all {
		if v != 1 {
			t.Fatalf("factor=1 weights = %v, want all ones", all)
		}
	}
}

func TestRecencyWeightsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RecencyWeights(3, 0) did not panic")
		}
	}()
	RecencyWeights(3, 0)
}

func TestWeightedMean(t *testing.T) {
	mean, w := WeightedMean([]float64{1, 0}, []float64{3, 1})
	if math.Abs(mean-0.75) > 1e-12 || w != 4 {
		t.Fatalf("WeightedMean = %g,%g", mean, w)
	}
	mean, w = WeightedMean(nil, nil)
	if mean != 0.5 || w != 0 {
		t.Fatalf("empty WeightedMean = %g,%g, want 0.5,0", mean, w)
	}
}

// fakeMech is a scriptable mechanism for engine tests.
type fakeMech struct {
	scores    map[EntityID]TrustValue
	providers map[EntityID]TrustValue
	submitted []Feedback
}

var (
	_ Mechanism      = (*fakeMech)(nil)
	_ ProviderScorer = (*fakeMech)(nil)
)

func (f *fakeMech) Name() string { return "fake" }

func (f *fakeMech) Submit(fb Feedback) error {
	f.submitted = append(f.submitted, fb)
	return nil
}

func (f *fakeMech) Score(q Query) (TrustValue, bool) {
	tv, ok := f.scores[q.Subject]
	return tv, ok
}

func (f *fakeMech) ScoreProvider(q Query) (TrustValue, bool) {
	tv, ok := f.providers[q.Subject]
	return tv, ok
}

func candidates() []Candidate {
	return []Candidate{
		{Service: "s001", Provider: "p001", Advertised: qos.Vector{qos.ResponseTime: 100}},
		{Service: "s002", Provider: "p002", Advertised: qos.Vector{qos.ResponseTime: 300}},
		{Service: "s003", Provider: "p003", Advertised: qos.Vector{qos.ResponseTime: 200}},
	}
}

func TestEngineRankByTrust(t *testing.T) {
	mech := &fakeMech{scores: map[EntityID]TrustValue{
		"s001": {Score: 0.2, Confidence: 1},
		"s002": {Score: 0.9, Confidence: 1},
		"s003": {Score: 0.5, Confidence: 1},
	}}
	e := NewEngine(mech, simclock.NewRand(1))
	ranked := e.Rank("c001", nil, candidates())
	if ranked[0].Service != "s002" || ranked[2].Service != "s001" {
		t.Fatalf("rank order = %v,%v,%v", ranked[0].Service, ranked[1].Service, ranked[2].Service)
	}
}

func TestEngineUnknownNeutralAndTieBreak(t *testing.T) {
	mech := &fakeMech{scores: map[EntityID]TrustValue{}}
	e := NewEngine(mech, simclock.NewRand(1))
	ranked := e.Rank("c001", nil, candidates())
	// All unknown → all 0.5 → lexicographic order.
	if ranked[0].Service != "s001" || ranked[1].Service != "s002" || ranked[2].Service != "s003" {
		t.Fatalf("tie-break order = %v,%v,%v", ranked[0].Service, ranked[1].Service, ranked[2].Service)
	}
	// A known decent service beats an unknown (neutral) one under greedy.
	mech.scores["s002"] = TrustValue{Score: 0.7, Confidence: 1}
	got, _, err := e.Select("c001", nil, candidates())
	if err != nil {
		t.Fatal(err)
	}
	if got.Service != "s002" {
		t.Fatalf("greedy picked %v, want the known s002", got.Service)
	}
}

func TestEngineAdvertisedFallback(t *testing.T) {
	mech := &fakeMech{scores: map[EntityID]TrustValue{}}
	e := NewEngine(mech, simclock.NewRand(1), WithAdvertisedFallback(true))
	prefs := qos.NewUniformPreferences(qos.ResponseTime)
	ranked := e.Rank("c001", prefs, candidates())
	// s001 advertises the lowest (best) response time.
	if ranked[0].Service != "s001" {
		t.Fatalf("advertised fallback picked %v, want s001", ranked[0].Service)
	}
}

func TestEngineTrustOverridesAdvertised(t *testing.T) {
	// s001 advertises best QoS but has terrible earned trust; with full
	// confidence, trust must dominate (claim C1's mechanism-level core).
	mech := &fakeMech{scores: map[EntityID]TrustValue{
		"s001": {Score: 0.05, Confidence: 1},
		"s002": {Score: 0.95, Confidence: 1},
	}}
	e := NewEngine(mech, simclock.NewRand(1), WithAdvertisedFallback(true))
	prefs := qos.NewUniformPreferences(qos.ResponseTime)
	ranked := e.Rank("c001", prefs, candidates())
	if ranked[0].Service != "s002" {
		t.Fatalf("trust did not dominate: top = %v", ranked[0].Service)
	}
}

func TestEngineProviderBootstrap(t *testing.T) {
	// s-new has no history; its provider p001 has a strong record. With the
	// bootstrap enabled it should outrank the equally-unknown s002 from an
	// unknown provider.
	mech := &fakeMech{
		scores:    map[EntityID]TrustValue{},
		providers: map[EntityID]TrustValue{"p001": {Score: 0.95, Confidence: 0.9}},
	}
	cands := []Candidate{
		{Service: "s-new", Provider: "p001"},
		{Service: "s002", Provider: "p-unknown"},
	}
	e := NewEngine(mech, simclock.NewRand(1), WithProviderBootstrap(true))
	ranked := e.Rank("c001", nil, cands)
	if ranked[0].Service != "s-new" {
		t.Fatalf("provider bootstrap did not lift new service: top = %v", ranked[0].Service)
	}
	// Without the bootstrap they tie and lexicographic order wins.
	e2 := NewEngine(mech, simclock.NewRand(1))
	ranked2 := e2.Rank("c001", nil, cands)
	if ranked2[0].Service != "s-new" || ranked2[0].Score != ranked2[1].Score {
		t.Fatalf("without bootstrap expected tie, got %+v vs %+v", ranked2[0], ranked2[1])
	}
}

func TestEngineSelectEmpty(t *testing.T) {
	e := NewEngine(&fakeMech{}, simclock.NewRand(1))
	if _, _, err := e.Select("c001", nil, nil); err == nil {
		t.Fatal("Select on empty candidates did not error")
	}
}

func TestEngineEpsilonGreedyExplores(t *testing.T) {
	mech := &fakeMech{scores: map[EntityID]TrustValue{
		"s001": {Score: 0.99, Confidence: 1},
		"s002": {Score: 0.01, Confidence: 1},
		"s003": {Score: 0.01, Confidence: 1},
	}}
	e := NewEngine(mech, simclock.NewRand(7), WithPolicy(PolicyEpsilonGreedy), WithEpsilon(0.5))
	nonTop := 0
	for i := 0; i < 200; i++ {
		got, _, err := e.Select("c001", nil, candidates())
		if err != nil {
			t.Fatal(err)
		}
		if got.Service != "s001" {
			nonTop++
		}
	}
	// ε=0.5 over 3 candidates → expect ~1/3 of picks off the top. Allow wide margin.
	if nonTop < 20 || nonTop > 150 {
		t.Fatalf("epsilon-greedy explored %d/200 times, outside sane band", nonTop)
	}
}

func TestEngineDeterministicForSeed(t *testing.T) {
	mech := &fakeMech{scores: map[EntityID]TrustValue{
		"s001": {Score: 0.4, Confidence: 0.5},
		"s002": {Score: 0.6, Confidence: 0.5},
	}}
	run := func() []EntityID {
		e := NewEngine(mech, simclock.NewRand(42), WithPolicy(PolicyEpsilonGreedy))
		var picks []EntityID
		for i := 0; i < 50; i++ {
			got, _, _ := e.Select("c001", nil, candidates())
			picks = append(picks, got.Service)
		}
		return picks
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different selection sequences")
		}
	}
}

func TestEntityIDConstructors(t *testing.T) {
	if NewConsumerID(1) != "c001" || NewProviderID(22) != "p022" || NewServiceID(333) != "s333" {
		t.Fatalf("unexpected id formats: %v %v %v", NewConsumerID(1), NewProviderID(22), NewServiceID(333))
	}
}

func TestEntityKindString(t *testing.T) {
	if KindPerson.String() != "person/agent" || KindResource.String() != "resource" {
		t.Fatal("EntityKind strings changed")
	}
}
