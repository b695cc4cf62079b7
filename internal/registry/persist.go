package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"wstrust/internal/core"
	"wstrust/internal/qos"
)

// ErrTruncated is the sentinel warning Import returns when the stream ends
// in a torn trailing record — the exact state a crash mid-write leaves
// behind. The valid prefix has been imported; callers distinguish this
// recoverable condition (errors.Is) from mid-stream corruption, which
// still fails hard.
var ErrTruncated = errors.New("registry: truncated trailing record")

// This file gives the central QoS registry a durable form: the feedback
// log exports to and imports from a line-delimited JSON stream, so a
// deployment can persist, ship, or replay its reputation history — and so
// experiments can snapshot a trained market.

// feedbackRecord is the wire form of one feedback entry.
type feedbackRecord struct {
	Consumer string             `json:"consumer"`
	Service  string             `json:"service"`
	Provider string             `json:"provider,omitempty"`
	Context  string             `json:"context,omitempty"`
	Ratings  map[string]float64 `json:"ratings,omitempty"`
	Observed map[string]float64 `json:"observed,omitempty"`
	Success  bool               `json:"success"`
	At       time.Time          `json:"at"`
}

func toRecord(fb core.Feedback) feedbackRecord {
	rec := feedbackRecord{
		Consumer: string(fb.Consumer),
		Service:  string(fb.Service),
		Provider: string(fb.Provider),
		Context:  string(fb.Context),
		Success:  fb.Observed.Success,
		At:       fb.At,
	}
	if len(fb.Ratings) > 0 {
		rec.Ratings = make(map[string]float64, len(fb.Ratings))
		for f, v := range fb.Ratings {
			rec.Ratings[string(f)] = v
		}
	}
	if len(fb.Observed.Values) > 0 {
		rec.Observed = make(map[string]float64, len(fb.Observed.Values))
		for m, v := range fb.Observed.Values {
			rec.Observed[string(m)] = v
		}
	}
	return rec
}

func (r feedbackRecord) toFeedback() core.Feedback {
	fb := core.Feedback{
		Consumer: core.ConsumerID(r.Consumer),
		Service:  core.ServiceID(r.Service),
		Provider: core.ProviderID(r.Provider),
		Context:  core.Context(r.Context),
		Observed: qos.Observation{Success: r.Success, At: r.At},
		At:       r.At,
	}
	if len(r.Ratings) > 0 {
		fb.Ratings = make(map[core.Facet]float64, len(r.Ratings))
		for f, v := range r.Ratings {
			fb.Ratings[core.Facet(f)] = v
		}
	}
	if len(r.Observed) > 0 {
		fb.Observed.Values = make(qos.Vector, len(r.Observed))
		for m, v := range r.Observed {
			fb.Observed.Values[qos.MetricID(m)] = v
		}
	}
	return fb
}

// marshalRecord renders one feedback entry in its JSON wire form — the
// payload of WAL frames and export lines.
func marshalRecord(fb core.Feedback) ([]byte, error) {
	return json.Marshal(toRecord(fb))
}

// Export writes the full feedback log as line-delimited JSON, in
// submission (sequence) order. It walks the log without its lock, so
// concurrent submits are not blocked.
func (s *Store) Export(w io.Writer) error {
	enc := json.NewEncoder(w)
	i := 0
	for _, fb := range s.log.view().all() {
		if err := enc.Encode(toRecord(fb)); err != nil {
			return fmt.Errorf("registry: export record %d: %w", i, err)
		}
		i++
	}
	return nil
}

// Import reads line-delimited JSON records (as written by Export) and
// submits each into the store, validating as it goes. It returns the
// number of records imported; on a malformed record it stops with an error
// after having imported the valid prefix. A record torn off mid-write at
// the very end of the stream is reported as the warning ErrTruncated
// rather than a hard failure, so a log severed by a crash still restores
// its durable prefix.
func (s *Store) Import(r io.Reader) (int, error) {
	dec := json.NewDecoder(r)
	n := 0
	for dec.More() {
		var rec feedbackRecord
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return n, fmt.Errorf("registry: import record %d: %w", n, ErrTruncated)
			}
			return n, fmt.Errorf("registry: import record %d: %w", n, err)
		}
		if err := s.Submit(rec.toFeedback()); err != nil {
			return n, fmt.Errorf("registry: import record %d: %w", n, err)
		}
		n++
	}
	return n, nil
}

// Replay feeds every stored feedback into a mechanism, in submission
// (sequence) order — rebuilding a reputation state from a persisted log.
func (s *Store) Replay(mech core.Mechanism) (int, error) {
	n := 0
	for _, fb := range s.log.view().all() {
		if err := mech.Submit(fb); err != nil {
			return n, fmt.Errorf("registry: replay record %d: %w", n, err)
		}
		n++
	}
	return n, nil
}
