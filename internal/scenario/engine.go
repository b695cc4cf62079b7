package scenario

import (
	"math"
	"sync"
	"sync/atomic"

	"wstrust/internal/core"
	"wstrust/internal/qos"
	"wstrust/internal/simclock"
	"wstrust/internal/workload"
)

// The engine simulates a scenario over flat struct-of-arrays slabs: every
// per-agent quantity is a dense-int-indexed array slice, there is not one
// map lookup or allocation on the per-consumer hot path, and rounds run
// as parallel epochs.
//
// Determinism contract (DESIGN.md §9): reports are byte-identical at any
// worker count because
//
//  1. every consumer's randomness comes from counter-based streams keyed
//     (seed, round, consumer, purpose) — scheduling cannot reorder draws;
//  2. consumers write only their own slab rows during an epoch and read
//     only the epoch-start reputation snapshot — no read-your-neighbour;
//  3. cross-consumer reductions (reputation sums, regret, counters) are
//     accumulated as fixed-point int64, and integer addition is
//     associative — merge order cannot change a total;
//  4. everything else (decay, reputation, report rendering) runs on the
//     single coordinator goroutine between epochs.

// Fixed-point scale for ratings, weights and regret accumulation.
const (
	qShift = 20
	qScale = 1 << qShift
)

// chunkSize is the fixed consumer-partition granule. It is part of the
// determinism story only in that it is constant: workers grab chunks from
// an atomic cursor, and since chunk content is index-derived and results
// merge through int64 sums, which worker ran a chunk is unobservable.
const chunkSize = 4096

// Lying behaviours, resolved from the attack cocktail.
const (
	behavHonest uint8 = iota
	behavBadmouth
	behavBallot
	behavCollusion
	behavComplementary
	behavRandom
)

// resolvedAttack is one cocktail entry compiled onto the consumer index
// space: consumers in [prev.end, end) run it.
type resolvedAttack struct {
	end      int
	behav    uint8
	period   int32 // whitewash identity-reset period; 0 = stable identity
	allyFrom int32 // first allied service index; nS = no allies
}

// Engine is one compiled scenario: population slabs, attack plan and
// registry aggregates. Build with New, run once per Engine with Run.
type Engine struct {
	sc   *Scenario
	seed int64

	nS, nC  int
	regions int
	rounds  int

	// Service slabs, [nS × k] row-major on the workload.PrefMetrics
	// columns (k=4) and the rating subset (k=3, availability excluded).
	advN4     []float64
	tN4       []float64
	tN3       []float64
	avail     []float64
	tier      []uint8
	baseTrueU []float64
	svcIDs    *core.DenseIDs

	// Consumer slabs.
	wN4      []float64 // normalized preference weights, nC × 4
	rwN3     []float64 // normalized rating weights, nC × 3
	bestTrue []float64 // oracle: best true utility per consumer
	alive    []byte    // marketplace-churn presence
	reports  []int32   // accepted reports per consumer (newcomer discount)

	plan []resolvedAttack

	// Mechanism and policy knobs, resolved out of sc so the hot loop
	// never chases the config structs.
	mechKind                string
	decayNum                int64 // 16-bit fixed-point per-round decay factor; 0 = none
	newcomerWQ              int64
	newcomerK               int32
	explore                 float64
	candK                   int
	rho                     float64
	drop                    float64
	staleServe              bool
	churnLeave, churnRejoin float64
	jitter                  float64

	// Registry aggregates — written only between epochs, on the
	// coordinator goroutine; workers read the per-round snapshot.
	gSumQ, gCntQ []int64
}

// New compiles a scenario into an engine. sc is normalized in place
// (Parse output already is); the seed argument is used when the scenario
// does not pin one.
func New(sc *Scenario, defaultSeed int64) (*Engine, error) {
	if err := sc.Normalize(); err != nil {
		return nil, err
	}
	seed := sc.Seed
	if seed == 0 {
		seed = defaultSeed
	}
	nS, nC := sc.Population.Services.N, sc.Population.Consumers.N
	e := &Engine{
		sc:      sc,
		seed:    seed,
		nS:      nS,
		nC:      nC,
		regions: sc.Population.Consumers.Regions,
		rounds:  sc.Rounds,

		advN4:     make([]float64, nS*4),
		tN4:       make([]float64, nS*4),
		tN3:       make([]float64, nS*3),
		avail:     make([]float64, nS),
		baseTrueU: make([]float64, nS),
		svcIDs:    core.NewDenseIDs(nS),

		wN4:     make([]float64, nC*4),
		rwN3:    make([]float64, nC*3),
		alive:   make([]byte, nC),
		reports: make([]int32, nC),

		mechKind: sc.Mechanism.Kind,
		explore:  sc.Selection.Explore,
		candK:    sc.Selection.Candidates,
		rho:      sc.Selection.ReputationWeight,

		gSumQ: make([]int64, nS),
		gCntQ: make([]int64, nS),
	}
	if e.mechKind == "advertised" {
		e.rho = 0
	}
	if sc.Mechanism.Kind == "decay" {
		e.decayNum = int64(math.Pow(2, -1/float64(sc.Mechanism.HalfLife))*65536 + 0.5)
	}
	e.newcomerWQ = int64(sc.Mechanism.NewcomerWeight*qScale + 0.5)
	e.newcomerK = int32(sc.Mechanism.NewcomerReports)
	if f := sc.Faults; f != nil {
		e.drop = f.Drop
	}
	e.staleServe = sc.Resilience == nil || sc.Resilience.Profile == "breaker"
	if ch := sc.Traffic.Churn; ch != nil {
		e.churnLeave, e.churnRejoin = ch.Leave, ch.Rejoin
	}

	e.buildServices()
	e.buildConsumers()
	e.buildPlan()
	return e, nil
}

// prefCols maps the PrefMetrics columns into SlabMetrics columns, and
// rating/ratingIDs cover PrefMetrics minus availability (the per-call
// rating excludes it: a successful call trivially observed availability
// 1, so its signal enters through failures rating 0 — the workload.Grade
// rule).
func prefCols() (pref, rating []int, ratingIDs []qos.MetricID, availAt int) {
	pos := map[qos.MetricID]int{}
	for i, id := range workload.SlabMetrics {
		pos[id] = i
	}
	for i, id := range workload.PrefMetrics {
		pref = append(pref, pos[id])
		if id == qos.Availability {
			availAt = i
		} else {
			rating = append(rating, pos[id])
			ratingIDs = append(ratingIDs, id)
		}
	}
	return pref, rating, ratingIDs, availAt
}

func (e *Engine) buildServices() {
	sv := e.sc.Population.Services
	slab := workload.GenerateServiceSlab(simclock.Stream(e.seed, "scenario.services"), workload.ServiceOptions{
		N:              sv.N,
		GoodFrac:       sv.GoodFrac,
		BadFrac:        sv.BadFrac,
		ExaggerateFrac: sv.ExaggerateFrac,
		Exaggeration:   sv.Exaggeration,
		Jitter:         sv.Jitter,
	})
	e.jitter = slab.Jitter
	e.tier = slab.Tier
	scale := workload.GradeScale()
	pref, rating, ratingIDs, _ := prefCols()
	availCol := 0
	for i, id := range workload.SlabMetrics {
		if id == qos.Availability {
			availCol = i
		}
	}
	for s := 0; s < e.nS; s++ {
		e.svcIDs.Add(string(core.NewServiceID(s + 1)))
		e.avail[s] = slab.TruthAt(s, availCol)
		var baseSum float64
		for m, col := range pref {
			id := workload.PrefMetrics[m]
			e.advN4[s*4+m] = scale.Normalize(id, slab.AdvertisedAt(s, col))
			tn := scale.Normalize(id, slab.TruthAt(s, col))
			e.tN4[s*4+m] = tn
			baseSum += tn
		}
		for m, col := range rating {
			e.tN3[s*3+m] = scale.Normalize(ratingIDs[m], slab.TruthAt(s, col))
		}
		e.baseTrueU[s] = baseSum / 4 * e.avail[s]
	}
}

func (e *Engine) buildConsumers() {
	co := e.sc.Population.Consumers
	slab := workload.GenerateConsumerSlab(simclock.Stream(e.seed, "scenario.consumers"), co.N, co.Heterogeneity)
	_, _, _, availAt := prefCols()
	for c := 0; c < e.nC; c++ {
		var sum, rsum float64
		for m := 0; m < 4; m++ {
			w := slab.WeightAt(c, m)
			sum += w
			if m != availAt {
				rsum += w
			}
		}
		for m := 0; m < 4; m++ {
			w := slab.WeightAt(c, m)
			if sum > 0 {
				e.wN4[c*4+m] = w / sum
			} else {
				e.wN4[c*4+m] = 0.25
			}
		}
		k := 0
		for m := 0; m < 4; m++ {
			if m == availAt {
				continue
			}
			w := slab.WeightAt(c, m)
			if rsum > 0 {
				e.rwN3[c*3+k] = w / rsum
			} else {
				e.rwN3[c*3+k] = 1.0 / 3
			}
			k++
		}
		e.alive[c] = 1
	}
}

func (e *Engine) buildPlan() {
	start := 0
	for _, a := range e.sc.Attacks {
		n := int(math.Ceil(a.Fraction * float64(e.nC)))
		end := start + n
		if end > e.nC {
			end = e.nC
		}
		kind := a.Kind
		var period int32
		if kind == "whitewash" {
			kind = a.Inner
			period = int32(a.Period)
		}
		var behav uint8
		switch kind {
		case "badmouth":
			behav = behavBadmouth
		case "ballot-stuff":
			behav = behavBallot
		case "collusion":
			behav = behavCollusion
		case "complementary":
			behav = behavComplementary
		case "random":
			behav = behavRandom
		}
		allyFrom := int32(e.nS)
		if behav == behavBallot || behav == behavCollusion {
			nAllies := int(math.Ceil(a.AlliedServices * float64(e.nS)))
			if nAllies > e.nS {
				nAllies = e.nS
			}
			// Allies come from the exaggerator end of the population —
			// the services with the most to gain (GenerateServiceSlab
			// places exaggerators at the top indexes).
			allyFrom = int32(e.nS - nAllies)
		}
		e.plan = append(e.plan, resolvedAttack{end: end, behav: behav, period: period, allyFrom: allyFrom})
		start = end
	}
}

// attackOf resolves consumer c's cocktail entry; honest by default.
//
//lint:hotpath called once per submit; a short linear scan over the cocktail
func (e *Engine) attackOf(c int) (behav uint8, period, allyFrom int32) {
	for i := range e.plan {
		if c < e.plan[i].end {
			return e.plan[i].behav, e.plan[i].period, e.plan[i].allyFrom
		}
	}
	return behavHonest, 0, int32(e.nS)
}

// scoreCand blends advertised utility with the reputation snapshot.
//
//lint:hotpath scored per candidate per selection — the innermost loop of the engine
func (e *Engine) scoreCand(wOff, s int, rep []float64, rho float64) float64 {
	a := e.advN4
	w := e.wN4
	base := s * 4
	adv := w[wOff]*a[base] + w[wOff+1]*a[base+1] + w[wOff+2]*a[base+2] + w[wOff+3]*a[base+3]
	return (1-rho)*adv + rho*rep[s]
}

// trueU is the oracle utility of service s for consumer c: preference-
// weighted normalized ground truth, scaled by availability (failed calls
// yield utility 0, so expected utility tracks the success ratio).
//
//lint:hotpath once per selection plus the oracle precompute sweep
func (e *Engine) trueU(c, s int) float64 {
	t := e.tN4
	w := e.wN4
	wOff, base := c*4, s*4
	u := w[wOff]*t[base] + w[wOff+1]*t[base+1] + w[wOff+2]*t[base+2] + w[wOff+3]*t[base+3]
	return u * e.avail[s]
}

// accum is one worker's epoch-private accumulator. Totals are exact
// int64 fixed-point so the cross-worker merge is order-independent.
type accum struct {
	sumQ, cntQ []int64
	requests   int64
	ok         int64
	lost       int64
	regretQ    int64
	tierCount  [4]int64
}

func newAccum(nS int) *accum {
	return &accum{sumQ: make([]int64, nS), cntQ: make([]int64, nS)}
}

func (a *accum) reset() {
	for i := range a.sumQ {
		a.sumQ[i] = 0
		a.cntQ[i] = 0
	}
	a.requests, a.ok, a.lost, a.regretQ = 0, 0, 0, 0
	a.tierCount = [4]int64{}
}

// parallelChunks fans [0,n) over workers in fixed chunkSize granules.
// fn(worker, lo, hi) must only write worker-private or consumer-private
// state; the atomic cursor decides who runs a chunk, never what it does.
func parallelChunks(n, workers int, fn func(worker, lo, hi int)) {
	chunks := (n + chunkSize - 1) / chunkSize
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		for ci := 0; ci < chunks; ci++ {
			lo := ci * chunkSize
			hi := lo + chunkSize
			if hi > n {
				hi = n
			}
			fn(0, lo, hi)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				ci := int(cursor.Add(1)) - 1
				if ci >= chunks {
					return
				}
				lo := ci * chunkSize
				hi := lo + chunkSize
				if hi > n {
					hi = n
				}
				fn(worker, lo, hi)
			}
		}(w)
	}
	wg.Wait()
}

// computeOracle fills bestTrue: each consumer's best attainable true
// utility over the whole catalog. Pure per consumer, so any worker count
// produces identical values.
func (e *Engine) computeOracle(workers int) {
	e.bestTrue = make([]float64, e.nC)
	parallelChunks(e.nC, workers, func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			best := 0.0
			for s := 0; s < e.nS; s++ {
				if u := e.trueU(c, s); u > best {
					best = u
				}
			}
			e.bestTrue[c] = best
		}
	})
}

// computeRep renders the registry aggregates into per-service reputation
// in [0,1].
func (e *Engine) computeRep(rep []float64) {
	switch e.mechKind {
	case "advertised":
		for s := range rep {
			rep[s] = 0.5
		}
	case "mean":
		for s := range rep {
			if e.gCntQ[s] == 0 {
				rep[s] = 0.5
			} else {
				rep[s] = float64(e.gSumQ[s]) / float64(e.gCntQ[s])
			}
		}
	default: // beta, decay: Laplace-smoothed toward the 0.5 prior
		for s := range rep {
			rep[s] = float64(e.gSumQ[s]+qScale) / float64(e.gCntQ[s]+2*qScale)
		}
	}
}

// decayQ multiplies a fixed-point aggregate by the 16-bit decay factor
// without overflowing: split the value so the wide product never exceeds
// 63 bits (aggregates stay under 2^62 by the schema's population and
// round ceilings).
func decayQ(v, num int64) int64 {
	return (v>>16)*num + ((v&0xffff)*num)>>16
}

// runChunk advances consumers [lo,hi) through one epoch: churn
// transition, activity draw, then the full select→invoke→grade→distort→
// submit step for active consumers.
//
//lint:hotpath the parallel epoch body; slab indexing only, no allocation
func (e *Engine) runChunk(round, lo, hi int, rateByRegion []float64, repByRegion [][]float64, rhoByRegion []float64, blockedSub []bool, acc *accum) {
	for c := lo; c < hi; c++ {
		if e.churnLeave > 0 {
			rng := streamFor(e.seed, round, c, purposeChurn)
			u := rng.float64()
			if e.alive[c] != 0 {
				if u < e.churnLeave {
					e.alive[c] = 0
				}
			} else if u < e.churnRejoin {
				e.alive[c] = 1
			}
		}
		if e.alive[c] == 0 {
			continue
		}
		region := c % e.regions
		rate := rateByRegion[region]
		if rate <= 0 {
			continue
		}
		if rate < 1 {
			rng := streamFor(e.seed, round, c, purposeActivity)
			if rng.float64() >= rate {
				continue
			}
		}
		e.stepConsumer(round, c, repByRegion[region], rhoByRegion[region], blockedSub[region], acc)
	}
}

// stepConsumer is the million-agent inner loop: one consumer's selection,
// invocation, grading, distortion and submit for one round.
//
//lint:hotpath runs once per active consumer per round; no allocation
func (e *Engine) stepConsumer(round, c int, rep []float64, rho float64, subBlocked bool, acc *accum) {
	rng := streamFor(e.seed, round, c, purposeAction)
	acc.requests++

	// Select: ε-greedy over a candidate sample scored against the
	// epoch-start reputation snapshot.
	nS := e.nS
	chosen := 0
	if rng.float64() < e.explore {
		chosen = rng.intn(nS)
	} else {
		wOff := c * 4
		best := math.Inf(-1)
		if nS <= e.candK {
			for s := 0; s < nS; s++ {
				if sc := e.scoreCand(wOff, s, rep, rho); sc > best {
					best, chosen = sc, s
				}
			}
		} else {
			for j := 0; j < e.candK; j++ {
				s := rng.intn(nS)
				if sc := e.scoreCand(wOff, s, rep, rho); sc > best {
					best, chosen = sc, s
				}
			}
		}
	}

	// Oracle accounting.
	regret := e.bestTrue[c] - e.trueU(c, chosen)
	if regret < 0 {
		regret = 0
	}
	acc.regretQ += int64(regret*qScale + 0.5)
	acc.tierCount[e.tier[chosen]]++

	// Invoke and grade: success tracks true availability; observed
	// values are truth plus bounded jitter, folded by the consumer's
	// rating weights (availability excluded — the workload.Grade rule).
	rating := 0.0
	success := rng.float64() < e.avail[chosen]
	if success {
		acc.ok++
		base := chosen * 3
		rOff := c * 3
		for m := 0; m < 3; m++ {
			v := e.tN3[base+m] + e.jitter*(2*rng.float64()-1)
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			rating += e.rwN3[rOff+m] * v
		}
	}

	// Distort per the cocktail.
	behav, period, allyFrom := e.attackOf(c)
	switch behav {
	case behavBadmouth:
		rating = 0.02
	case behavBallot:
		if int32(chosen) >= allyFrom {
			rating = 0.98
		}
	case behavCollusion:
		if int32(chosen) >= allyFrom {
			rating = 0.98
		} else {
			rating = 0.02
		}
	case behavComplementary:
		rating = 1 - rating
	case behavRandom:
		rating = rng.float64()
	}

	// Submit: lost to partitions/outages or the fault layer's drop rate;
	// otherwise folded into the worker's exact fixed-point accumulators.
	if subBlocked {
		acc.lost++
		return
	}
	if e.drop > 0 && rng.float64() < e.drop {
		acc.lost++
		return
	}
	wQ := int64(qScale)
	if e.newcomerK > 0 {
		n := e.reports[c]
		if period > 0 {
			n %= period // whitewash: identity resets every period reports
		}
		if n < e.newcomerK {
			wQ = e.newcomerWQ
		}
	}
	rQ := int64(rating*qScale + 0.5)
	acc.sumQ[chosen] += (wQ * rQ) >> qShift
	acc.cntQ[chosen] += wQ
	e.reports[c]++
}

// Run simulates the scenario with the given worker count and returns the
// rendered report. The report text is byte-identical at any workers
// value; run each Engine once (aggregates are consumed).
func (e *Engine) Run(workers int) *Report {
	if workers < 1 {
		workers = 1
	}
	if e.bestTrue == nil {
		e.computeOracle(workers)
	}

	var outages []Window
	if e.sc.Faults != nil {
		outages = e.sc.Faults.Outages
	}
	parts := e.sc.Traffic.Partitions
	frozenOut := make([][]float64, len(outages))
	frozenPart := make([][]float64, len(parts))

	rep := make([]float64, e.nS)
	scratch := make([]float64, e.nS)
	rateByRegion := make([]float64, e.regions)
	repByRegion := make([][]float64, e.regions)
	rhoByRegion := make([]float64, e.regions)
	blockedSub := make([]bool, e.regions)

	accs := make([]*accum, workers)
	for w := range accs {
		accs[w] = newAccum(e.nS)
	}

	rows := make([]RoundStats, 0, e.rounds)
	var totReq, totOK, totLost, totRegretQ int64
	var totTier [4]int64

	for round := 0; round < e.rounds; round++ {
		e.computeRep(rep)
		for i, w := range outages {
			if round == w.From {
				frozenOut[i] = append([]float64(nil), rep...)
			}
		}
		for i, p := range parts {
			if round == p.From {
				frozenPart[i] = append([]float64(nil), rep...)
			}
		}
		outIdx := -1
		for i, w := range outages {
			if round >= w.From && round < w.To {
				outIdx = i
				break
			}
		}
		for r := 0; r < e.regions; r++ {
			rateByRegion[r] = e.sc.Traffic.RateAt(round, r, e.regions)
			repByRegion[r] = rep
			rhoByRegion[r] = e.rho
			blockedSub[r] = false
			var frozen []float64
			cut := false
			if outIdx >= 0 {
				cut, frozen = true, frozenOut[outIdx]
			} else {
				for i, p := range parts {
					if p.Region == r && round >= p.From && round < p.To {
						cut, frozen = true, frozenPart[i]
						break
					}
				}
			}
			if cut {
				blockedSub[r] = true
				if e.staleServe && frozen != nil {
					repByRegion[r] = frozen // breaker: serve the stale cache
				} else {
					rhoByRegion[r] = 0 // naive: discovery failed, advertised only
				}
			}
		}

		for _, a := range accs {
			a.reset()
		}
		parallelChunks(e.nC, workers, func(worker, lo, hi int) {
			e.runChunk(round, lo, hi, rateByRegion, repByRegion, rhoByRegion, blockedSub, accs[worker])
		})

		// Merge: int64 additions, so worker count and chunk order are
		// unobservable in the totals.
		var row RoundStats
		row.Round = round
		for _, a := range accs {
			for s := 0; s < e.nS; s++ {
				e.gSumQ[s] += a.sumQ[s]
				e.gCntQ[s] += a.cntQ[s]
			}
			row.Requests += a.requests
			row.OK += a.ok
			row.Lost += a.lost
			row.regretQ += a.regretQ
			for t := range a.tierCount {
				row.tierCount[t] += a.tierCount[t]
			}
		}
		if row.Requests > 0 {
			sel := float64(row.Requests)
			row.MeanRegret = float64(row.regretQ) / sel / qScale
			row.HitRate = float64(row.tierCount[workload.Good]) / sel
			row.GoodShare = row.HitRate
			row.MediumShare = float64(row.tierCount[workload.Medium]) / sel
			row.BadShare = float64(row.tierCount[workload.Bad]) / sel
		}
		if e.decayNum > 0 {
			for s := 0; s < e.nS; s++ {
				e.gSumQ[s] = decayQ(e.gSumQ[s], e.decayNum)
				e.gCntQ[s] = decayQ(e.gCntQ[s], e.decayNum)
			}
		}
		e.computeRep(scratch)
		row.RepMAE = e.repMAE(scratch)
		rows = append(rows, row)

		totReq += row.Requests
		totOK += row.OK
		totLost += row.Lost
		totRegretQ += row.regretQ
		for t := range row.tierCount {
			totTier[t] += row.tierCount[t]
		}
	}

	rpt := &Report{
		Scenario: e.sc,
		Seed:     e.seed,
		Rounds:   rows,
		Requests: totReq,
		OK:       totOK,
		Lost:     totLost,
	}
	if totReq > 0 {
		rpt.MeanRegret = float64(totRegretQ) / float64(totReq) / qScale
		rpt.HitRate = float64(totTier[workload.Good]) / float64(totReq)
	}
	if len(rows) > 0 {
		rpt.FinalRepMAE = rows[len(rows)-1].RepMAE
	}
	rpt.TopServices = e.topServices(3)
	rpt.render()
	return rpt
}

// repMAE is the mean absolute error between reputation and base-profile
// true utility over services the registry has heard about.
func (e *Engine) repMAE(rep []float64) float64 {
	var sum float64
	n := 0
	for s := 0; s < e.nS; s++ {
		if e.gCntQ[s] == 0 {
			continue
		}
		sum += math.Abs(rep[s] - e.baseTrueU[s])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// topServices lists the k best services by final reputation, dense index
// order breaking ties, materialized to string IDs at this report
// boundary only.
func (e *Engine) topServices(k int) []TopService {
	rep := make([]float64, e.nS)
	e.computeRep(rep)
	out := make([]TopService, 0, k)
	used := make([]bool, e.nS)
	for len(out) < k && len(out) < e.nS {
		best, bestAt := math.Inf(-1), -1
		for s := 0; s < e.nS; s++ {
			if !used[s] && rep[s] > best {
				best, bestAt = rep[s], s
			}
		}
		if bestAt < 0 {
			break
		}
		used[bestAt] = true
		out = append(out, TopService{
			ID:         e.svcIDs.ID(bestAt),
			Reputation: best,
			Tier:       workload.Tier(e.tier[bestAt]).String(),
		})
	}
	return out
}
