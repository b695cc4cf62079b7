package pagerank

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"wstrust/internal/core"
	"wstrust/internal/simclock"
)

func TestRankSumsToOne(t *testing.T) {
	nodes := []string{"a", "b", "c"}
	edges := map[string]map[string]float64{
		"a": {"b": 1}, "b": {"c": 1}, "c": {"a": 1},
	}
	ranks := Rank(nodes, edges, 0.85, 50)
	sum := 0.0
	for _, r := range ranks {
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("ranks sum to %g", sum)
	}
	// Symmetric ring: all equal.
	if math.Abs(ranks["a"]-ranks["b"]) > 1e-9 {
		t.Fatalf("ring ranks unequal: %v", ranks)
	}
}

func TestRankFavorsInlinks(t *testing.T) {
	nodes := []string{"a", "b", "c", "hub"}
	edges := map[string]map[string]float64{
		"a": {"hub": 1}, "b": {"hub": 1}, "c": {"hub": 1},
	}
	ranks := Rank(nodes, edges, 0.85, 50)
	if ranks["hub"] <= ranks["a"] {
		t.Fatalf("hub %g not above leaf %g", ranks["hub"], ranks["a"])
	}
}

func TestRankEmpty(t *testing.T) {
	if got := Rank(nil, nil, 0.85, 10); len(got) != 0 {
		t.Fatalf("empty rank = %v", got)
	}
}

func TestRankDeterministic(t *testing.T) {
	nodes := []string{"x", "y", "z"}
	edges := map[string]map[string]float64{"x": {"y": 2, "z": 1}}
	a := Rank(nodes, edges, 0.85, 25)
	b := Rank(nodes, edges, 0.85, 25)
	for k := range a {
		if a[k] != b[k] {
			t.Fatal("Rank not deterministic")
		}
	}
	if a["y"] <= a["z"] {
		t.Fatalf("weighted edge ignored: y=%g z=%g", a["y"], a["z"])
	}
}

func TestRankNegativeWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative weight did not panic")
		}
	}()
	Rank([]string{"a", "b"}, map[string]map[string]float64{"a": {"b": -1}}, 0.85, 5)
}

// Property: ranks are a probability distribution for arbitrary small graphs.
func TestRankDistributionProperty(t *testing.T) {
	f := func(adj [6][6]uint8) bool {
		nodes := []string{"n0", "n1", "n2", "n3", "n4", "n5"}
		edges := map[string]map[string]float64{}
		for i := range adj {
			for j := range adj[i] {
				if i != j && adj[i][j]%3 == 0 && adj[i][j] > 0 {
					if edges[nodes[i]] == nil {
						edges[nodes[i]] = map[string]float64{}
					}
					edges[nodes[i]][nodes[j]] = float64(adj[i][j])
				}
			}
		}
		ranks := Rank(nodes, edges, 0.85, 30)
		sum := 0.0
		for _, r := range ranks {
			if r < 0 || r > 1 {
				return false
			}
			sum += r
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func fb(c core.ConsumerID, s core.ServiceID, v float64) core.Feedback {
	return core.Feedback{
		Consumer: c, Service: s, Provider: "p001",
		Ratings: map[core.Facet]float64{core.FacetOverall: v}, At: simclock.Epoch,
	}
}

func TestMechanismRanksPopularService(t *testing.T) {
	m := New()
	// s-pop gets positive ratings from many consumers; s-meh from one.
	for i := 1; i <= 8; i++ {
		_ = m.Submit(fb(core.NewConsumerID(i), "s-pop", 0.9))
	}
	_ = m.Submit(fb("c009", "s-meh", 0.9))
	m.Tick(simclock.Epoch)
	pop, ok := m.Score(core.Query{Subject: "s-pop"})
	if !ok {
		t.Fatal("s-pop unknown")
	}
	meh, _ := m.Score(core.Query{Subject: "s-meh"})
	if pop.Score <= meh.Score {
		t.Fatalf("popularity not reflected: pop=%g meh=%g", pop.Score, meh.Score)
	}
	if pop.Score != 1 {
		t.Fatalf("top service should normalize to 1, got %g", pop.Score)
	}
}

func TestMechanismNegativeRatingsAddNoLinks(t *testing.T) {
	m := New()
	for i := 1; i <= 5; i++ {
		_ = m.Submit(fb(core.NewConsumerID(i), "s-bad", 0.1))
	}
	_ = m.Submit(fb("c009", "s-good", 0.9))
	m.Tick(simclock.Epoch)
	bad, ok := m.Score(core.Query{Subject: "s-bad"})
	if !ok {
		t.Fatal("rated service unknown")
	}
	good, _ := m.Score(core.Query{Subject: "s-good"})
	if bad.Score >= good.Score {
		t.Fatalf("negatively rated service outranked: bad=%g good=%g", bad.Score, good.Score)
	}
}

func TestMechanismLazyRecompute(t *testing.T) {
	m := New()
	_ = m.Submit(fb("c001", "s001", 0.9))
	// No explicit Tick: Score must still answer from a fresh computation.
	if _, ok := m.Score(core.Query{Subject: "s001"}); !ok {
		t.Fatal("lazy recompute failed")
	}
}

func TestMechanismUnknown(t *testing.T) {
	m := New()
	if _, ok := m.Score(core.Query{Subject: "s-x"}); ok {
		t.Fatal("unknown subject known")
	}
}

func TestMechanismRejectsInvalid(t *testing.T) {
	if err := New().Submit(core.Feedback{}); err == nil {
		t.Fatal("invalid feedback accepted")
	}
}

func TestMechanismTickTime(t *testing.T) {
	m := New()
	_ = m.Submit(fb("c001", "s001", 0.9))
	m.Tick(time.Now()) // wall time is irrelevant; must not panic
	if _, ok := m.Score(core.Query{Subject: "s001"}); !ok {
		t.Fatal("post-tick score missing")
	}
}
