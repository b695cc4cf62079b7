package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wstrust/internal/core"
	"wstrust/internal/registry"
	"wstrust/internal/resilience"
	"wstrust/internal/simclock"
	"wstrust/internal/trust/beta"
)

// TestServerCompactionFailureKeepsWrites: a failing auto-compaction must
// not fail the /submit or /local-trust that triggered it. The record is
// durable and applied, so the handler answers 200, feeds the mechanism,
// marks the ranking stale and counts no breaker failure; the compaction
// error is logged and the next threshold retries.
func TestServerCompactionFailureKeepsWrites(t *testing.T) {
	dir := t.TempDir()
	store, _, err := registry.Open(dir, registry.WALOptions{SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := store.Close(); err != nil {
			t.Errorf("close store: %v", err)
		}
	})
	// A directory where the temp snapshot goes makes every compaction fail.
	blocker := filepath.Join(dir, "snapshot.wsx.tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var logs []string
	compactionLogs := func() int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, l := range logs {
			if strings.Contains(l, "auto-compaction") {
				n++
			}
		}
		return n
	}
	s, err := newServer(serverConfig{
		Store: store, Clock: simclock.NewVirtual(), Seed: 42,
		Services: 8, ShedRate: 1000, Timeout: time.Minute,
		// One failure would open the circuit.
		Breaker: resilience.BreakerConfig{FailureThreshold: 1, Cooldown: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	h := s.routes()
	// evidence counts the ratings beta has absorbed for s001: the n for
	// which a fresh beta fed n copies of the same rating scores the same.
	evidence := func() int {
		got, _ := s.getMech().Score(scoreQuery("s001"))
		ref := beta.New()
		fb := core.Feedback{
			Consumer: "c1", Service: "s001", Provider: "p1", Context: "compute",
			Ratings: map[core.Facet]float64{core.FacetOverall: 0.9},
		}
		for n := 0; n <= 8; n++ {
			if want, _ := ref.Score(scoreQuery("s001")); want == got {
				return n
			}
			if err := ref.Submit(fb); err != nil {
				t.Fatal(err)
			}
		}
		return -1
	}
	rating := `{"consumer":"c1","service":"s001","provider":"p1","context":"compute","rating":0.9}`

	for i := 0; i < 2; i++ {
		if w := do(t, h, "POST", "/submit", rating); w.Code != http.StatusOK {
			t.Fatalf("submit %d = %d: %s", i, w.Code, w.Body)
		}
	}
	if store.Len() != 2 || evidence() != 2 || s.rankVer.Load() != 2 {
		t.Fatalf("after 2 submits: store %d, beta evidence %d, rank version %d; want 2/2/2",
			store.Len(), evidence(), s.rankVer.Load())
	}
	if got := compactionLogs(); got != 1 {
		t.Fatalf("compaction failure logged %d times, want 1: %q", got, logs)
	}

	// A two-rating batch reaches the next threshold and fails again.
	batch := `{"ratings":[` + rating + `,` + rating + `]}`
	if w := do(t, h, "POST", "/local-trust", batch); w.Code != http.StatusOK {
		t.Fatalf("local-trust = %d: %s", w.Code, w.Body)
	}
	if store.Len() != 4 || evidence() != 4 || s.rankVer.Load() != 3 {
		t.Fatalf("after the batch: store %d, beta evidence %d, rank version %d; want 4/4/3",
			store.Len(), evidence(), s.rankVer.Load())
	}
	if got := compactionLogs(); got != 2 {
		t.Fatalf("compaction failure logged %d times, want 2", got)
	}
	if st := s.breaker.Stats(); st.Trips != 0 {
		t.Fatalf("compaction failures reached the breaker: %+v", st)
	}

	// Clear the fault: the next threshold compacts.
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if w := do(t, h, "POST", "/submit", rating); w.Code != http.StatusOK {
			t.Fatalf("submit after clearing the fault = %d: %s", w.Code, w.Body)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.wsx")); err != nil {
		t.Fatalf("no snapshot after the fault cleared: %v", err)
	}
	if got := compactionLogs(); got != 2 {
		t.Fatalf("compaction failure logged %d times after the fault cleared, want 2", got)
	}
}
