package eigentrust

import (
	"math"
	"slices"
	"sort"
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/p2p"
	"wstrust/internal/trust/trusttest"
)

// denseRef is the textbook EigenTrust build exact mode used to run: sort
// every peer by ID, materialize the n×n normalized matrix C, and run a
// fixed number of power-iteration rounds from the teleport vector, after
// every change. It bills edges×iters messages through edges×iters/2
// exchanges between the two lowest peer IDs. Exact mode must reproduce
// its scores bit for bit and its message count exactly.
type denseRef struct {
	iters      int
	preTrusted map[core.EntityID]bool
	net        *p2p.Network
	local      map[core.EntityID]map[core.EntityID]float64
	counts     map[core.EntityID]int
	joined     map[core.EntityID]bool
	dirty      bool
	scores     map[core.EntityID]float64
	maxSub     float64
}

func newDenseRef(iters int, pre []core.EntityID) *denseRef {
	r := &denseRef{
		iters: iters, preTrusted: map[core.EntityID]bool{}, net: p2p.NewNetwork(),
		local: map[core.EntityID]map[core.EntityID]float64{}, counts: map[core.EntityID]int{},
		joined: map[core.EntityID]bool{}, dirty: true,
	}
	for _, id := range pre {
		r.preTrusted[id] = true
	}
	return r
}

func (r *denseRef) submit(fb core.Feedback) {
	v, delta := fb.Overall(), 0.0
	switch {
	case v > 0.6:
		delta = 1
	case v < 0.4:
		delta = -1
	}
	row, ok := r.local[fb.Consumer]
	if !ok {
		row = map[core.EntityID]float64{}
		r.local[fb.Consumer] = row
	}
	row[fb.Service] = math.Max(0, row[fb.Service]+delta)
	r.counts[fb.Service]++
	r.dirty = true
}

func (r *denseRef) score(subject core.EntityID) (core.TrustValue, bool) {
	if r.dirty {
		r.compute()
	}
	if r.counts[subject] == 0 {
		return core.TrustValue{Score: 0.5, Confidence: 0}, false
	}
	score := 0.0
	if r.maxSub > 0 {
		score = math.Min(1, r.scores[subject]/r.maxSub)
	}
	n := float64(r.counts[subject])
	return core.TrustValue{Score: score, Confidence: n / (n + 5)}, true
}

func (r *denseRef) compute() {
	r.dirty = false
	set := map[core.EntityID]bool{}
	for rater, row := range r.local {
		set[rater] = true
		for s := range row {
			set[s] = true
		}
	}
	peers := make([]core.EntityID, 0, len(set))
	for id := range set {
		peers = append(peers, id)
	}
	slices.Sort(peers)
	n := len(peers)
	r.scores, r.maxSub = map[core.EntityID]float64{}, 0
	if n == 0 {
		return
	}
	idx := make(map[core.EntityID]int, n)
	for i, p := range peers {
		idx[p] = i
	}
	c := make([][]float64, n)
	edges := 0
	for i, p := range peers {
		row := r.local[p]
		subjects := make([]core.EntityID, 0, len(row))
		for s := range row {
			subjects = append(subjects, s)
		}
		sort.Slice(subjects, func(a, b int) bool { return subjects[a] < subjects[b] })
		var total float64
		for _, s := range subjects {
			total += row[s]
		}
		if total == 0 {
			continue
		}
		c[i] = make([]float64, n)
		for _, s := range subjects {
			if v := row[s]; v > 0 {
				c[i][idx[s]] = v / total
				edges++
			}
		}
	}
	pvec := make([]float64, n)
	pre := 0
	for i, p := range peers {
		if r.preTrusted[p] {
			pvec[i] = 1
			pre++
		}
	}
	for i := range pvec {
		if pre == 0 {
			pvec[i] = 1 / float64(n)
		} else {
			pvec[i] /= float64(pre)
		}
	}
	t := slices.Clone(pvec)
	next := make([]float64, n)
	for it := 0; it < r.iters; it++ {
		for j := range next {
			next[j] = alpha * pvec[j]
		}
		for i := range peers {
			if c[i] == nil || t[i] == 0 {
				continue
			}
			for j, cij := range c[i] {
				if cij > 0 {
					next[j] += (1 - alpha) * t[i] * cij
				}
			}
		}
		t, next = next, t
	}
	for _, p := range peers {
		if !r.joined[p] {
			r.net.Join(p2p.NodeID(p), func(p2p.NodeID, string, any) any { return "ack" })
			r.joined[p] = true
		}
	}
	if n >= 2 {
		for i := 0; i < edges*r.iters/2; i++ {
			_, _ = r.net.Send(p2p.NodeID(peers[0]), p2p.NodeID(peers[1]), "et.exchange", nil)
		}
	}
	for i, p := range peers {
		r.scores[p] = t[i]
		if r.counts[p] > 0 && t[i] > r.maxSub {
			r.maxSub = t[i]
		}
	}
}

// withReverseRatings lets every rated service rate its rater back, so
// trust flows along multi-hop cycles rather than one consumer→service
// hop and every peer both rates and is rated.
func withReverseRatings(s trusttest.Script) trusttest.Script {
	var fbs []core.Feedback
	for i, fb := range s.Feedbacks {
		fbs = append(fbs, fb)
		if i%2 == 0 {
			back := fb
			back.Consumer, back.Service = core.ConsumerID(fb.Service), core.ServiceID(fb.Consumer)
			back.Ratings = map[core.Facet]float64{core.FacetOverall: 1 - fb.Overall()}
			fbs = append(fbs, back)
		}
	}
	s.Feedbacks = fbs
	return s
}

// TestExactMatchesDenseReference pins exact mode's arithmetic, not only
// the golden digest's shapes: across seeds, with and without pre-trusted
// peers, on one-hop and cyclic trust graphs and with Ticks interleaved,
// every rated subject scores with the same bits as the dense reference
// and the network carries the same number of messages.
func TestExactMatchesDenseReference(t *testing.T) {
	for _, seed := range []int64{3, 19, 42, 77} {
		for _, pre := range [][]core.EntityID{nil, {core.NewConsumerID(0), core.NewConsumerID(1)}} {
			for _, cyclic := range []bool{false, true} {
				s := trusttest.Market(seed, 14, 10, 12, 0.6)
				if cyclic {
					s = withReverseRatings(s)
				}
				m := New(WithPreTrusted(pre...), WithNetwork(p2p.NewNetwork()))
				ref := newDenseRef(iters, pre)
				for i, fb := range s.Feedbacks {
					if err := m.Submit(fb); err != nil {
						t.Fatal(err)
					}
					ref.submit(fb)
					if i%7 == 6 {
						m.Tick(fb.At)
						ref.compute()
					}
					if i%3 != 0 && i != len(s.Feedbacks)-1 {
						continue
					}
					subjects := make([]core.EntityID, 0, len(ref.counts))
					for id := range ref.counts {
						subjects = append(subjects, id)
					}
					slices.Sort(subjects)
					for _, id := range subjects {
						got, gotOK := m.Score(core.Query{Subject: id})
						want, wantOK := ref.score(id)
						if gotOK != wantOK ||
							math.Float64bits(got.Score) != math.Float64bits(want.Score) ||
							math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence) {
							t.Fatalf("seed %d pre=%v cyclic=%v after %d submits: %s = %+v, reference %+v",
								seed, pre, cyclic, i+1, id, got, want)
						}
					}
					if got, want := m.MessageCount(), ref.net.MessageCount(); got != want {
						t.Fatalf("seed %d pre=%v cyclic=%v after %d submits: %d messages, reference %d",
							seed, pre, cyclic, i+1, got, want)
					}
				}
			}
		}
	}
}

// TestMessageRule checks that both modes bill one message per positive
// local-trust entry per dense round: after its first cold pass an ε-mode
// instance reports entries × rounds messages, rounded down to even
// because every exchange carries a request and its reply.
func TestMessageRule(t *testing.T) {
	m := New(WithEpsilon(1e-9), WithNetwork(p2p.NewNetwork()))
	s := trusttest.Market(7, 12, 9, 8, 0.7)
	for _, fb := range s.Feedbacks {
		if err := m.Submit(fb); err != nil {
			t.Fatal(err)
		}
	}
	m.Score(s.Queries[0])
	entries := 0
	for _, row := range m.local {
		for _, v := range row {
			if v > 0 {
				entries++
			}
		}
	}
	st := m.LastConvergence()
	if st.WarmStart || st.Iterations == 0 || entries == 0 {
		t.Fatalf("want a cold pass over a non-empty basis: %+v, %d entries", st, entries)
	}
	want := int64(entries * st.Iterations &^ 1)
	if got := m.MessageCount(); got != want {
		t.Fatalf("MessageCount = %d after a %d-round cold pass over %d entries, want %d",
			got, st.Iterations, entries, want)
	}
}
