package registry

// Direct decoding of the registry's own record layout. Every payload Open
// recovers, snapshot record or WAL frame, was written by marshalRecord:
// encoding/json's rendering of feedbackRecord, with the fields in
// declaration order, empty optional fields left out and no whitespace.
// For the identifiers a deployment uses its strings hold nothing to
// unescape. decodeRecord reads that layout straight into a core.Feedback,
// without reflection and without the intermediate feedbackRecord and its
// string-keyed maps. Any other payload (an escaped string, a reordered or
// unknown field, null, whitespace) goes to encoding/json exactly as
// before. That fallback is the only path for identifiers holding a
// character json.Marshal escapes, and it is the reference the direct
// decoder is fuzzed against (FuzzDecodeRecord).

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"wstrust/internal/core"
	"wstrust/internal/qos"
)

// decodeRecord decodes one record payload into feedback.
func decodeRecord(p []byte) (core.Feedback, error) {
	if fb, ok := decodeDirect(p); ok {
		return fb, nil
	}
	var rec feedbackRecord
	if err := json.Unmarshal(p, &rec); err != nil {
		return core.Feedback{}, err
	}
	return rec.toFeedback(), nil
}

// decodeDirect decodes p when it is in marshalRecord's layout and reports
// false for any other payload. Whenever it accepts a payload,
// encoding/json accepts it too and decodes the same feedback.
func decodeDirect(p []byte) (fb core.Feedback, ok bool) {
	d := layout{b: p}
	if !d.lit(`{"consumer":`) {
		return fb, false
	}
	fb.Consumer = core.ConsumerID(d.str())
	if !d.lit(`,"service":`) {
		return fb, false
	}
	fb.Service = core.ServiceID(d.str())
	if d.lit(`,"provider":`) {
		fb.Provider = core.ProviderID(d.str())
	}
	if d.lit(`,"context":`) {
		fb.Context = core.Context(d.str())
	}
	if d.lit(`,"ratings":`) {
		fb.Ratings = floats[core.Facet](&d)
	}
	if d.lit(`,"observed":`) {
		fb.Observed.Values = floats[qos.MetricID](&d)
	}
	if !d.lit(`,"success":`) {
		return fb, false
	}
	switch {
	case d.lit("true"):
		fb.Observed.Success = true
	case d.lit("false"):
	default:
		return fb, false
	}
	if !d.lit(`,"at":`) {
		return fb, false
	}
	// time.Time's UnmarshalJSON hands the bytes between the quotes to the
	// same RFC 3339 parser UnmarshalText uses, so the instant and its
	// location come out identical.
	if at := d.str(); d.bad || fb.At.UnmarshalText(at) != nil {
		return fb, false
	}
	fb.Observed.At = fb.At
	if !d.lit("}") || len(d.b) != 0 {
		return fb, false
	}
	return fb, true
}

// layout walks a payload in marshalRecord's layout. A value that does not
// match sets bad, which every later step then keeps.
type layout struct {
	b   []byte
	bad bool
}

// lit consumes s when the payload continues with it.
func (d *layout) lit(s string) bool {
	if d.bad || len(d.b) < len(s) || string(d.b[:len(s)]) != s {
		return false
	}
	d.b = d.b[len(s):]
	return true
}

// str consumes a JSON string that encoding/json returns unchanged: valid
// UTF-8 with no escape and no control byte. It returns the bytes between
// the quotes.
func (d *layout) str() []byte {
	if d.bad || len(d.b) == 0 || d.b[0] != '"' {
		d.bad = true
		return nil
	}
	ascii := true
	for i := 1; i < len(d.b); i++ {
		switch c := d.b[i]; {
		case c == '"':
			s := d.b[1:i]
			if !ascii && !utf8.Valid(s) {
				d.bad = true
				return nil
			}
			d.b = d.b[i+1:]
			return s
		case c == '\\' || c < ' ':
			d.bad = true
			return nil
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	d.bad = true
	return nil
}

// num consumes a number in JSON's grammar and returns the float64
// encoding/json would decode from it, which is strconv.ParseFloat's. A
// number ParseFloat rejects (out of range) is one encoding/json rejects.
func (d *layout) num() float64 {
	b := d.b
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i)
	default:
		d.bad = true
		return 0
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			d.bad = true
			return 0
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			d.bad = true
			return 0
		}
		i = j
	}
	v, err := strconv.ParseFloat(string(b[:i]), 64)
	if err != nil {
		d.bad = true
		return 0
	}
	d.b = b[i:]
	return v
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// floats consumes a JSON object of numbers, the layout of the ratings and
// observed maps. An empty object gives a nil map, as toFeedback leaves an
// empty one; a repeated key keeps its last value, as encoding/json does.
func floats[K ~string](d *layout) map[K]float64 {
	if !d.lit("{") {
		d.bad = true
		return nil
	}
	if d.lit("}") {
		return nil
	}
	m := make(map[K]float64, 1)
	for {
		k := d.str()
		if !d.lit(":") {
			d.bad = true
			return nil
		}
		v := d.num()
		if d.bad {
			return nil
		}
		m[K(k)] = v
		if d.lit("}") {
			return m
		}
		if !d.lit(",") {
			d.bad = true
			return nil
		}
	}
}
