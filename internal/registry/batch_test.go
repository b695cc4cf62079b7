package registry

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"wstrust/internal/core"
	"wstrust/internal/simclock"
)

// batchFeedback builds one well-formed feedback for batch tests.
func batchFeedback(c, s, off int) core.Feedback {
	return core.Feedback{
		Consumer: core.NewConsumerID(c),
		Service:  core.NewServiceID(s),
		Provider: core.NewProviderID(s),
		Context:  "compute",
		Ratings:  map[core.Facet]float64{core.FacetOverall: 0.7},
		At:       simclock.Epoch.Add(time.Duration(off) * time.Second),
	}
}

// TestSubmitBatchMatchesSequential proves a batch is observationally
// identical to the same records submitted one by one: same length, same
// log in the same order, same message accounting.
func TestSubmitBatchMatchesSequential(t *testing.T) {
	batch := NewStore()
	seqst := NewStore()
	var fbs []core.Feedback
	for i := 0; i < 40; i++ {
		fbs = append(fbs, batchFeedback(i%5, i%7, i))
	}
	if err := batch.SubmitBatch(fbs); err != nil {
		t.Fatal(err)
	}
	for i, fb := range fbs {
		if err := seqst.Submit(fb); err != nil {
			t.Fatalf("sequential submit %d: %v", i, err)
		}
	}
	if batch.Len() != seqst.Len() {
		t.Fatalf("Len: batch=%d sequential=%d", batch.Len(), seqst.Len())
	}
	if batch.MessageCount() != seqst.MessageCount() {
		t.Fatalf("MessageCount: batch=%d sequential=%d", batch.MessageCount(), seqst.MessageCount())
	}
	if !exportsEqual(t, batch, seqst) {
		t.Fatal("batch and sequential stores export different logs")
	}
}

// TestSubmitBatchRejectsWhole proves validation happens before any state
// change: one malformed record poisons the batch and the store is left
// exactly as it was.
func TestSubmitBatchRejectsWhole(t *testing.T) {
	s := NewStore()
	if err := s.Submit(batchFeedback(0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	bad := []core.Feedback{
		batchFeedback(1, 1, 1),
		{Consumer: "c", Service: "s",
			Ratings: map[core.Facet]float64{core.FacetOverall: 2}}, // out of [0,1]: invalid
		batchFeedback(2, 2, 2),
	}
	if err := s.SubmitBatch(bad); err == nil {
		t.Fatal("batch with a malformed record must be rejected")
	}
	if s.Len() != 1 {
		t.Fatalf("rejected batch mutated the store: len=%d, want 1", s.Len())
	}
	if got := len(replayed(t, s)); got != 1 {
		t.Fatalf("rejected batch leaked %d records into the shards", got-1)
	}
	if err := s.SubmitBatch(nil); err != nil {
		t.Fatalf("empty batch must be a no-op, got %v", err)
	}
}

// TestSubmitBatchDurable proves the single group commit is as durable as
// N individual commits: a reopened store replays every batch record.
func TestSubmitBatchDurable(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var fbs []core.Feedback
	for i := 0; i < 25; i++ {
		fbs = append(fbs, batchFeedback(i%4, i%6, i))
	}
	if err := s.SubmitBatch(fbs); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec, err := Open(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if s2.Len() != len(fbs) || rec.WALRecords != len(fbs) {
		t.Fatalf("recovered len=%d walRecords=%d, want %d", s2.Len(), rec.WALRecords, len(fbs))
	}
	// A batch after recovery continues the sequence without collisions.
	if err := s2.SubmitBatch([]core.Feedback{batchFeedback(9, 9, 99)}); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != len(fbs)+1 {
		t.Fatalf("post-recovery batch: len=%d, want %d", s2.Len(), len(fbs)+1)
	}
}

// TestSubmitBatchClosed rejects batches on a closed store.
func TestSubmitBatchClosed(t *testing.T) {
	s, _, err := Open(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitBatch([]core.Feedback{batchFeedback(0, 0, 0)}); err == nil {
		t.Fatal("SubmitBatch on a closed store must fail")
	}
}

// TestSubmitBatchConcurrent interleaves batches with single submits across
// goroutines (run under -race): counts must add up and every consumer's
// history must be complete.
func TestSubmitBatchConcurrent(t *testing.T) {
	s, _, err := Open(t.TempDir(), WALOptions{SyncEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	}()
	const (
		workers   = 8
		perWorker = 20
		batchLen  = 5
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if w%2 == 0 {
					var fbs []core.Feedback
					for j := 0; j < batchLen; j++ {
						fbs = append(fbs, batchFeedback(w, i*batchLen+j, i))
					}
					if err := s.SubmitBatch(fbs); err != nil {
						t.Errorf("worker %d batch %d: %v", w, i, err)
						return
					}
				} else if err := s.Submit(batchFeedback(w, i, i)); err != nil {
					t.Errorf("worker %d submit %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	want := (workers / 2) * perWorker * batchLen // even workers: batches
	want += (workers / 2) * perWorker            // odd workers: singles
	if s.Len() != want {
		t.Fatalf("Len = %d, want %d", s.Len(), want)
	}
	history := map[core.ConsumerID]int{}
	for _, fb := range replayed(t, s) {
		history[fb.Consumer]++
	}
	for w := 0; w < workers; w++ {
		per := perWorker * batchLen
		if w%2 == 1 {
			per = perWorker
		}
		if got := history[core.NewConsumerID(w)]; got != per {
			t.Fatalf("consumer %d history = %d records, want %d", w, got, per)
		}
	}
}

// TestSubmitBatchSeqOrder proves batch records receive contiguous,
// ascending sequence numbers so the merged log preserves batch order.
func TestSubmitBatchSeqOrder(t *testing.T) {
	s := NewStore()
	var fbs []core.Feedback
	for i := 0; i < 10; i++ {
		fb := batchFeedback(0, 3, i) // one service: all land in one shard
		fb.Ratings = map[core.Facet]float64{core.FacetOverall: float64(i) / 10}
		fbs = append(fbs, fb)
	}
	if err := s.SubmitBatch(fbs); err != nil {
		t.Fatal(err)
	}
	if seqs := sortedSeqs(s); !slices.Equal(seqs, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) {
		t.Fatalf("batch seqs %v, want 1..10", seqs)
	}
	got := replayed(t, s)
	if len(got) != len(fbs) {
		t.Fatalf("Replay fed %d records, want %d", len(got), len(fbs))
	}
	for i, fb := range got {
		if want := float64(i) / 10; fb.Ratings[core.FacetOverall] != want {
			t.Fatalf("record %d out of batch order: rating %g, want %g (full: %s)",
				i, fb.Ratings[core.FacetOverall], want, fmtRatings(got))
		}
	}
}

func fmtRatings(fbs []core.Feedback) string {
	out := ""
	for _, fb := range fbs {
		out += fmt.Sprintf("%.1f ", fb.Ratings[core.FacetOverall])
	}
	return out
}
