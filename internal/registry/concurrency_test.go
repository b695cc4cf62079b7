package registry

import (
	"errors"
	"io"
	"sync"
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/simclock"
)

// TestConcurrentSubmitAndQuery hammers the registry from many goroutines;
// run with -race. The store promises safety for concurrent use.
func TestConcurrentSubmitAndQuery(t *testing.T) {
	st := NewStore()
	var wg sync.WaitGroup
	const writers, readers, perG = 8, 4, 200
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				fb := core.Feedback{
					Consumer: core.NewConsumerID(w),
					Service:  core.NewServiceID(i % 10),
					Ratings:  map[core.Facet]float64{core.FacetOverall: 0.5},
					At:       simclock.Epoch,
				}
				if err := st.Submit(fb); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := st.FramesSince(uint64(i), 16); err != nil && !errors.Is(err, ErrHorizon) {
					t.Error(err)
				}
				if i%20 == 0 {
					if err := st.Export(io.Discard); err != nil {
						t.Error(err)
					}
					if _, _, err := st.WriteSnapshotTo(io.Discard); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	if st.Len() != writers*perG {
		t.Fatalf("lost submissions: %d", st.Len())
	}
}
