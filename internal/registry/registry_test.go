package registry

import (
	"io"
	"testing"
	"time"

	"wstrust/internal/core"
	"wstrust/internal/simclock"
)

func fb(c core.ConsumerID, s core.ServiceID, overall float64, at time.Time) core.Feedback {
	return core.Feedback{
		Consumer: c, Service: s, Provider: "p001", Context: "weather",
		Ratings: map[core.Facet]float64{core.FacetOverall: overall},
		At:      at,
	}
}

func TestSubmitAndQuery(t *testing.T) {
	st := NewStore()
	t0 := simclock.Epoch
	if err := st.Submit(fb("c001", "s001", 0.9, t0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Submit(fb("c002", "s001", 0.7, t0.Add(time.Minute))); err != nil {
		t.Fatal(err)
	}
	if err := st.Submit(fb("c001", "s002", 0.2, t0.Add(2*time.Minute))); err != nil {
		t.Fatal(err)
	}

	if st.Len() != 3 {
		t.Fatalf("Len = %d", st.Len())
	}
	got := replayed(t, st)
	want := []struct {
		c core.ConsumerID
		s core.ServiceID
	}{{"c001", "s001"}, {"c002", "s001"}, {"c001", "s002"}}
	if len(got) != len(want) {
		t.Fatalf("Replay fed %d records, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Consumer != w.c || got[i].Service != w.s {
			t.Fatalf("record %d = %s/%s, want %s/%s", i, got[i].Consumer, got[i].Service, w.c, w.s)
		}
	}
}

func TestSubmitRejectsInvalid(t *testing.T) {
	st := NewStore()
	bad := core.Feedback{Service: "s001"}
	if err := st.Submit(bad); err == nil {
		t.Fatal("invalid feedback accepted")
	}
	if st.Len() != 0 {
		t.Fatal("rejected feedback was stored")
	}
}

// TestMessageAccounting: the registry counts one message per submitted
// record, whether alone or in a batch; reading the log costs none.
func TestMessageAccounting(t *testing.T) {
	st := NewStore()
	_ = st.Submit(fb("c001", "s001", 1, simclock.Epoch))
	_ = st.SubmitBatch([]core.Feedback{fb("c002", "s001", 1, simclock.Epoch), fb("c003", "s002", 1, simclock.Epoch)})
	if got := st.MessageCount(); got != 3 {
		t.Fatalf("MessageCount = %d after 3 submitted records", got)
	}
	replayed(t, st)
	exportOf(t, st)
	if _, err := st.FramesSince(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.WriteSnapshotTo(io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := st.MessageCount(); got != 3 {
		t.Fatalf("MessageCount = %d after reads, want 3", got)
	}
}
