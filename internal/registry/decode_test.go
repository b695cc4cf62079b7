package registry

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"wstrust/internal/core"
	"wstrust/internal/qos"
	"wstrust/internal/simclock"
)

// jsonDecode is the reference decoder: encoding/json into feedbackRecord,
// the path every payload took before the direct decoder.
func jsonDecode(p []byte) (core.Feedback, error) {
	var rec feedbackRecord
	if err := json.Unmarshal(p, &rec); err != nil {
		return core.Feedback{}, err
	}
	return rec.toFeedback(), nil
}

func marshalT(t testing.TB, fb core.Feedback) []byte {
	t.Helper()
	p, err := marshalRecord(fb)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// FuzzDecodeRecord: whenever the direct decoder accepts a payload,
// encoding/json accepts it too and decodes a deeply equal feedback — the
// same strings, the same floats, nil where json leaves a map nil, and the
// same instant in the same location.
func FuzzDecodeRecord(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		f.Add(marshalT(f, richFeedback(i)))
		f.Add(marshalT(f, randFeedback(rng, i)))
	}
	f.Add(marshalT(f, bootFeedback(3)))
	f.Add([]byte(`{"consumer":"c","service":"s","ratings":{},"observed":{"x":-0,"x":1e-7},"success":true,"at":"2007-06-25T02:00:00.5+02:00"}`))
	f.Add([]byte(`{"consumer":"c","service":"s","ratings":{"overall":01},"success":false,"at":"2007-06-25T00:00:00Z"}`))
	f.Add([]byte(`{"consumer":"\u00e9","service":"s","success":false,"at":"2007-06-25T00:00:00Z"}`))
	f.Add([]byte(`{"consumer":"c","service":"s","ratings":null,"success":false,"at":"2007-06-25T00:00:00Z"} `))
	f.Fuzz(func(t *testing.T, p []byte) {
		got, ok := decodeDirect(p)
		if !ok {
			return
		}
		want, err := jsonDecode(p)
		if err != nil {
			t.Fatalf("direct decoder accepted %q, encoding/json rejects it: %v", p, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("direct decoder and encoding/json differ on %q:\ndirect %#v\n  json %#v", p, got, want)
		}
	})
}

// TestDirectDecodeCoversMarshalRecord: what marshalRecord writes for
// plain identifiers takes the direct path, so recovering the benchmark's
// records (or any deployment's) cannot fall back to reflection unnoticed.
func TestDirectDecodeCoversMarshalRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var fbs []core.Feedback
	for i := 0; i < 200; i++ {
		fbs = append(fbs, richFeedback(i), randFeedback(rng, i), bootFeedback(i))
	}
	fbs = append(fbs, core.Feedback{
		Consumer: "consumer-ü", Service: "svc/ä", Provider: "p 1", Context: "日本",
		Ratings:  map[core.Facet]float64{core.FacetOverall: 1e-9, qos.Accuracy: 0},
		Observed: qos.Observation{Values: qos.Vector{qos.ResponseTime: 1e21}, Success: true},
		At:       time.Date(2031, 2, 3, 4, 5, 6, 7, time.FixedZone("", -5*3600)),
	})
	for _, fb := range fbs {
		p := marshalT(t, fb)
		got, ok := decodeDirect(p)
		if !ok {
			t.Fatalf("marshalRecord output fell back to encoding/json: %s", p)
		}
		want, err := jsonDecode(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("direct decode of %s:\n got %#v\nwant %#v", p, got, want)
		}
	}
}

// TestEscapedIDsFallBack: an identifier holding a character json.Marshal
// escapes — a quote, a backslash, <, &, U+2028, a control byte — is not
// in the direct layout, and decodes through encoding/json to exactly the
// identifiers that were written.
func TestEscapedIDsFallBack(t *testing.T) {
	for _, id := range []string{`a"b`, `a\b`, "a<b", "a&b", "a\u2028b", "a\x01b", "tab\there"} {
		fb := core.Feedback{
			Consumer: core.ConsumerID(id),
			Service:  core.ServiceID("s-" + id),
			Provider: core.ProviderID(id),
			Context:  core.Context(id),
			Ratings:  map[core.Facet]float64{core.Facet(id): 0.5},
			At:       simclock.Epoch,
		}
		p := marshalT(t, fb)
		if _, ok := decodeDirect(p); ok {
			t.Fatalf("%q: escaped payload took the direct path: %s", id, p)
		}
		got, err := decodeRecord(p)
		if err != nil {
			t.Fatalf("%q: %v", id, err)
		}
		want, err := jsonDecode(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || got.Consumer != fb.Consumer || got.Service != fb.Service ||
			got.Provider != fb.Provider || got.Context != fb.Context || got.Ratings[core.Facet(id)] != 0.5 {
			t.Fatalf("%q: decoded %#v", id, got)
		}
	}
}

// TestDecodeRecordFallbackShapes: payloads outside the direct layout —
// reordered or unknown fields, null, whitespace — decode exactly as
// encoding/json decodes them, and what it rejects stays rejected.
func TestDecodeRecordFallbackShapes(t *testing.T) {
	for _, p := range []string{
		`{"service":"s","consumer":"c","success":true,"at":"2007-06-25T00:00:00Z"}`,
		`{"consumer":"c","service":"s","extra":1,"success":false,"at":"2007-06-25T00:00:00Z"}`,
		`{"consumer":"c","service":"s","ratings":null,"success":false,"at":"2007-06-25T00:00:00Z"}`,
		`{"consumer": "c","service":"s","success":false,"at":"2007-06-25T00:00:00Z"}`,
		`{"consumer":"c","service":"s","success":false,"at":"2007-06-25T00:00:00Z"}` + "\n",
		`{"consumer":"c","service":"s","success":false}`,
		`{"consumer":"c","service":"s","ratings":{"overall":1e400},"success":false,"at":"2007-06-25T00:00:00Z"}`,
		`{"consumer":"c","service":"s","success":false,"at":"not a time"}`,
		`{"consumer":"c"`,
		``,
	} {
		if _, ok := decodeDirect([]byte(p)); ok {
			t.Fatalf("%q took the direct path", p)
		}
		got, err := decodeRecord([]byte(p))
		want, werr := jsonDecode([]byte(p))
		if (err == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decodeRecord (%#v, %v), encoding/json (%#v, %v)", p, got, err, want, werr)
		}
	}
}
