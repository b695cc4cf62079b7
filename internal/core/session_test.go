package core

import (
	"testing"

	"wstrust/internal/qos"
	"wstrust/internal/simclock"
)

// sessionMech scores half the services, leaving the rest to the engine's
// unknown-candidate handling.
type sessionMech struct{ scores map[EntityID]TrustValue }

func (sessionMech) Name() string          { return "session-test" }
func (sessionMech) Submit(Feedback) error { return nil }
func (m sessionMech) Score(q Query) (TrustValue, bool) {
	tv, ok := m.scores[q.Subject]
	return tv, ok
}

func sessionFixture(n int) (sessionMech, []Candidate) {
	mech := sessionMech{scores: map[EntityID]TrustValue{}}
	cands := make([]Candidate, n)
	for i := range cands {
		id := NewServiceID(i)
		cands[i] = Candidate{
			Service: id, Provider: NewProviderID(i), Context: "compute",
			Advertised: qos.Vector{
				qos.ResponseTime: float64(100 + 13*i%300),
				qos.Availability: 0.5 + float64(i%5)/10,
				qos.Cost:         float64(1 + i%9),
			},
		}
		if i%2 == 0 {
			mech.scores[id] = TrustValue{Score: float64(i%10) / 10, Confidence: float64(i%4) / 4}
		}
	}
	return mech, cands
}

// TestRankSessionMatchesRank checks the prepared-candidates path is
// bit-identical to the one-shot path, including across candidate-set
// changes.
func TestRankSessionMatchesRank(t *testing.T) {
	mech, cands := sessionFixture(40)
	prefs := qos.Preferences{qos.ResponseTime: 2, qos.Availability: 1, qos.Cost: 1}

	e := NewEngine(mech, simclock.NewRand(1))
	s := e.NewRankSession(cands)
	check := func(set []Candidate) {
		t.Helper()
		s.SetCandidates(set)
		want := e.Rank("c001", prefs, set)
		got := s.Rank("c001", prefs)
		if len(got) != len(want) {
			t.Fatalf("session ranked %d, engine %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Service != want[i].Service || got[i].Score != want[i].Score ||
				got[i].Utility != want[i].Utility || got[i].Trust != want[i].Trust {
				t.Fatalf("rank %d differs:\nsession: %+v\nengine:  %+v", i, got[i], want[i])
			}
		}
	}
	check(cands)
	check(cands)         // repeated call reuses prepared state
	check(cands[:25])    // shrinking the set must re-normalize
	check(cands)         // and growing back again
	s.SetCandidates(nil) // empty set ranks empty
	if r := s.Rank("c001", prefs); r != nil {
		t.Fatalf("empty session ranked %d candidates", len(r))
	}
}

// TestRankSessionSelectMatchesEngine checks both policies consume
// RNG draws identically through both paths, so a loop refactored onto
// sessions keeps bit-identical selections.
func TestRankSessionSelectMatchesEngine(t *testing.T) {
	mech, cands := sessionFixture(25)
	prefs := qos.Preferences{qos.ResponseTime: 1, qos.Cost: 2}
	for _, policy := range []Policy{PolicyGreedy, PolicyEpsilonGreedy} {
		eA := NewEngine(mech, simclock.NewRand(7), WithPolicy(policy))
		eB := NewEngine(mech, simclock.NewRand(7), WithPolicy(policy))
		s := eB.NewRankSession(cands)
		for step := 0; step < 50; step++ {
			wantPick, _, err := eA.Select("c002", prefs, cands)
			if err != nil {
				t.Fatal(err)
			}
			gotPick, _, err := s.Select("c002", prefs)
			if err != nil {
				t.Fatal(err)
			}
			if gotPick.Service != wantPick.Service {
				t.Fatalf("policy %v step %d: session picked %s, engine %s",
					policy, step, gotPick.Service, wantPick.Service)
			}
		}
	}
}

// TestRankSessionBufferAliasing documents that Rank's result is only valid
// until the next call.
func TestRankSessionBufferAliasing(t *testing.T) {
	mech, cands := sessionFixture(8)
	e := NewEngine(mech, simclock.NewRand(3))
	s := e.NewRankSession(cands)
	prefs := qos.Preferences{qos.Cost: 1}
	first := s.Rank("c001", prefs)
	second := s.Rank("c002", prefs)
	if &first[0] != &second[0] {
		t.Fatal("session should reuse its ranking buffer across calls")
	}
}

// TestRankSortsByScoreThenService checks that a ranking is the candidates
// in their one order by score descending, then service ID, on shuffled
// candidates with many tied scores, across calls that reuse the buffers.
func TestRankSortsByScoreThenService(t *testing.T) {
	mech, cands := sessionFixture(40)
	simclock.NewRand(5).Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	provider := map[ServiceID]ProviderID{}
	for _, c := range cands {
		provider[c.Service] = c.Provider
	}
	s := NewEngine(mech, simclock.NewRand(1)).NewRankSession(cands)
	for _, prefs := range []qos.Preferences{nil, {qos.Cost: 1}, nil} {
		ranked := s.Rank("c001", prefs)
		seen := map[ServiceID]bool{}
		for i, r := range ranked {
			if seen[r.Service] || provider[r.Service] != r.Provider {
				t.Fatalf("rank %d: row %+v repeated or mixed with another candidate's", i, r)
			}
			seen[r.Service] = true
			if i > 0 {
				prev := ranked[i-1]
				if prev.Score < r.Score || (prev.Score == r.Score && prev.Service > r.Service) {
					t.Fatalf("rank %d out of order: %s %v before %s %v", i, prev.Service, prev.Score, r.Service, r.Score)
				}
			}
		}
		if len(seen) != len(cands) {
			t.Fatalf("ranked %d distinct candidates of %d", len(seen), len(cands))
		}
	}
}
