package cf

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"wstrust/internal/core"
)

// mapReference is the map-based collaborative filter the indexed store
// replaced, kept as a test-side reference: a consumer → service → rating
// map, recomputed from scratch on every query. It sorts IDs wherever it
// sums, so the order of every float sum is fixed by the IDs alone — the
// order the sorted rows and columns must reproduce.
type mapReference struct {
	cfg     *Mechanism // configuration only; its store stays empty
	ratings map[core.ConsumerID]map[core.EntityID]float64
}

func newMapReference(opts ...Option) *mapReference {
	return &mapReference{cfg: New(opts...), ratings: map[core.ConsumerID]map[core.EntityID]float64{}}
}

func (r *mapReference) Submit(fb core.Feedback) error {
	if err := fb.Validate(); err != nil {
		return err
	}
	row, ok := r.ratings[fb.Consumer]
	if !ok {
		row = map[core.EntityID]float64{}
		r.ratings[fb.Consumer] = row
	}
	row[fb.Service] = fb.Overall()
	return nil
}

func (r *mapReference) similarity(a, b map[core.EntityID]float64) (float64, bool) {
	type pair struct{ x, y float64 }
	var ps []pair
	items := make([]core.EntityID, 0, len(a))
	for item := range a {
		items = append(items, item)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	for _, item := range items {
		if vb, ok := b[item]; ok {
			ps = append(ps, pair{a[item], vb})
		}
	}
	if len(ps) < minOverlap {
		return 0, false
	}
	switch r.cfg.sim {
	case Cosine:
		var dot, na, nb float64
		for _, p := range ps {
			dot += p.x * p.y
			na += p.x * p.x
			nb += p.y * p.y
		}
		if na == 0 || nb == 0 {
			return 0, false
		}
		return dot / (math.Sqrt(na) * math.Sqrt(nb)), true
	default: // Pearson
		var sx, sy float64
		for _, p := range ps {
			sx += p.x
			sy += p.y
		}
		n := float64(len(ps))
		mx, my := sx/n, sy/n
		var cov, vx, vy float64
		for _, p := range ps {
			cov += (p.x - mx) * (p.y - my)
			vx += (p.x - mx) * (p.x - mx)
			vy += (p.y - my) * (p.y - my)
		}
		if vx == 0 || vy == 0 {
			return 0, false
		}
		return cov / (math.Sqrt(vx) * math.Sqrt(vy)), true
	}
}

func (r *mapReference) SimilarityBetween(a, b core.ConsumerID) (float64, bool) {
	ra, ok1 := r.ratings[a]
	rb, ok2 := r.ratings[b]
	if !ok1 || !ok2 {
		return 0, false
	}
	return r.similarity(ra, rb)
}

func (r *mapReference) Score(q core.Query) (core.TrustValue, bool) {
	if q.Perspective == "" {
		return r.itemMean(q.Subject)
	}
	me, ok := r.ratings[q.Perspective]
	if !ok || len(me) == 0 {
		return r.itemMean(q.Subject)
	}
	if v, rated := me[q.Subject]; rated {
		return core.TrustValue{Score: v, Confidence: 0.9}, true
	}
	myMean := meanOfMap(me)

	type neighbor struct {
		id             core.ConsumerID
		sim, mean, val float64
	}
	var nbs []neighbor
	for _, other := range r.consumers() {
		if other == q.Perspective {
			continue
		}
		row := r.ratings[other]
		val, rated := row[q.Subject]
		if !rated {
			continue
		}
		s, ok := r.similarity(me, row)
		if !ok || s <= 0 {
			continue
		}
		nbs = append(nbs, neighbor{other, s, meanOfMap(row), val})
	}
	if len(nbs) == 0 {
		return r.itemMean(q.Subject)
	}
	sort.Slice(nbs, func(i, j int) bool {
		if nbs[i].sim != nbs[j].sim {
			return nbs[i].sim > nbs[j].sim
		}
		return nbs[i].id < nbs[j].id
	})
	if len(nbs) > neighbors {
		nbs = nbs[:neighbors]
	}
	var num, den float64
	for _, nb := range nbs {
		num += nb.sim * (nb.val - nb.mean)
		den += math.Abs(nb.sim)
	}
	pred := myMean + num/den
	pred = math.Max(0, math.Min(1, pred))
	conf := den / (den + 2)
	return core.TrustValue{Score: pred, Confidence: conf}, true
}

// itemMean sums the item's column in sorted consumer order.
func (r *mapReference) itemMean(item core.EntityID) (core.TrustValue, bool) {
	var sum, n float64
	for _, c := range r.consumers() {
		if v, ok := r.ratings[c][item]; ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return core.TrustValue{Score: 0.5, Confidence: 0}, false
	}
	score := (sum + 0.5*3) / (n + 3)
	return core.TrustValue{Score: score, Confidence: n / (n + 5)}, true
}

func (r *mapReference) consumers() []core.ConsumerID {
	out := make([]core.ConsumerID, 0, len(r.ratings))
	for id := range r.ratings {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// meanOfMap sums a row in sorted item order.
func meanOfMap(row map[core.EntityID]float64) float64 {
	if len(row) == 0 {
		return 0.5
	}
	ids := make([]core.EntityID, 0, len(row))
	for id := range row {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	sum := 0.0
	for _, id := range ids {
		sum += row[id]
	}
	return sum / float64(len(row))
}

// referenceConfigs are the two similarity measures.
var referenceConfigs = []struct {
	name string
	opts []Option
}{
	{"pearson", nil},
	{"cosine", []Option{WithSimilarity(Cosine)}},
}

// Stream alphabet: raters c000..c023 rate s000..s006; queries also name a
// consumer that never rates, the global perspective "", and a service
// nobody rates. More raters than the neighborhood holds rate each service,
// so predictions evict candidates from a full neighborhood.
const (
	refRaters   = 24
	refServices = 7
)

func refConsumer(b byte) core.ConsumerID {
	switch n := int(b) % (refRaters + 2); n {
	case refRaters:
		return "stranger"
	case refRaters + 1:
		return ""
	default:
		return core.NewConsumerID(n)
	}
}

func refService(b byte) core.EntityID {
	if n := int(b) % (refServices + 1); n < refServices {
		return core.NewServiceID(n)
	}
	return "s-none"
}

// matchReference drives a Mechanism and a mapReference with one stream
// of 4-byte ops — a rating (two ops in four, values in tenths so that
// re-ratings often repeat), a Score, or a SimilarityBetween — then sweeps
// every query the alphabet can name, and fails on the first answer whose
// bits differ.
func matchReference(t testing.TB, opts []Option, stream []byte) {
	t.Helper()
	m, ref := New(opts...), newMapReference(opts...)
	score := func(step int, q core.Query) {
		got, gok := m.Score(q)
		want, wok := ref.Score(q)
		if gok != wok || math.Float64bits(got.Score) != math.Float64bits(want.Score) ||
			math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence) {
			t.Fatalf("step %d: Score(%q, %q) = %+v %v, reference %+v %v", step, q.Perspective, q.Subject, got, gok, want, wok)
		}
	}
	similarity := func(step int, a, b core.ConsumerID) {
		got, gok := m.SimilarityBetween(a, b)
		want, wok := ref.SimilarityBetween(a, b)
		if gok != wok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: SimilarityBetween(%q, %q) = %v %v, reference %v %v", step, a, b, got, gok, want, wok)
		}
	}
	step := 0
	for ; len(stream) >= 4; step++ {
		op, a, b, v := stream[0], stream[1], stream[2], stream[3]
		stream = stream[4:]
		switch op % 4 {
		case 0, 1:
			f := core.Feedback{
				Consumer: core.NewConsumerID(int(a) % refRaters),
				Service:  core.NewServiceID(int(b) % refServices),
				Ratings:  map[core.Facet]float64{core.FacetOverall: float64(v%11) / 10},
			}
			if err := m.Submit(f); err != nil {
				t.Fatal(err)
			}
			if err := ref.Submit(f); err != nil {
				t.Fatal(err)
			}
		case 2:
			score(step, core.Query{Perspective: refConsumer(a), Subject: refService(b), Facet: core.FacetOverall})
		case 3:
			similarity(step, refConsumer(a), refConsumer(b))
		}
	}
	for a := 0; a < refRaters+2; a++ {
		for b := 0; b < refServices+1; b++ {
			score(step, core.Query{Perspective: refConsumer(byte(a)), Subject: refService(byte(b)), Facet: core.FacetOverall})
		}
		for b := 0; b < refRaters+2; b++ {
			similarity(step, refConsumer(byte(a)), refConsumer(byte(b)))
		}
	}
}

// TestMatchesMapReference compares every Score and SimilarityBetween with
// the map-based reference, bit for bit, over random rating streams for
// each similarity measure (120 streams each). trusttest.Differential
// compares two instances of the same code and cannot see a changed
// summation order; this can.
func TestMatchesMapReference(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 20
	}
	for _, cfg := range referenceConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				stream := make([]byte, 4*600)
				rand.New(rand.NewSource(seed)).Read(stream)
				matchReference(t, cfg.opts, stream)
			}
		})
	}
}

// FuzzMatchesReference runs the reference comparison on fuzzed rating
// streams; the first byte picks the configuration.
func FuzzMatchesReference(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{2, 0, 1, 1, 5, 0, 2, 1, 7, 1, 1, 2, 3, 1, 2, 2, 9, 2, 0, 1, 9, 4, 3, 2, 2, 3, 3, 0, 0})
	f.Add([]byte{7, 0, 1, 0, 10, 1, 2, 0, 0, 0, 1, 1, 3, 1, 2, 1, 10, 2, 0, 3, 3, 2, 3, 0, 6, 3, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		matchReference(t, referenceConfigs[int(data[0])%len(referenceConfigs)].opts, data[1:])
	})
}
