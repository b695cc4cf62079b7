package registry

import (
	"iter"
	"maps"
	"slices"
	"sort"

	"wstrust/internal/core"
)

// View is an immutable, point-in-time snapshot of the registry assembled by
// merging the shard segments in global sequence order. Every read API
// serves from the current View, so queries never take a shard write lock
// and see a consistent prefix of the submission history. Views are built
// incrementally: a refresh clones the previous view's maps (shallow — the
// per-key slices are extended in place, which is safe because refreshes
// are serialized by Store.viewMu and published views are never mutated
// within a reader's observed bounds).
//
// View is immutable after publish: once stored in Store.view it is shared
// lock-free by every reader, and only the buildView/rebuildView
// constructors (which run before the Store.view.Store publish) may write
// its fields. wsxlint's immutable analyzer enforces this.
type View struct {
	version uint64 // Store.version at build time
	gen     uint64 // Store.gen at build time

	maxSeq    uint64           // highest sequence number folded in
	shardLens [shardCount]int  // records consumed per shard

	log        []core.Feedback // all records, sequence (= submission) order
	seqs       []uint64        // seqs[i] is log[i]'s sequence number; may have
	// gaps when a racing writer's shard apply lands after the build —
	// replication (FramesSince, WriteSnapshotTo) must never assume
	// position i holds sequence base+i+1
	byService map[core.ServiceID][]core.Feedback
	byConsumer map[core.ConsumerID][]core.Feedback
	byPair     map[pairKey][]core.Feedback
	matrix     map[core.ConsumerID]map[core.ServiceID]float64
	services   []core.ServiceID  // distinct services, sorted
	consumers  []core.ConsumerID // distinct consumers, sorted
}

// emptyView is the view of a store with no records.
func emptyView(version, gen uint64) *View {
	return &View{
		version:    version,
		gen:        gen,
		byService:  map[core.ServiceID][]core.Feedback{},
		byConsumer: map[core.ConsumerID][]core.Feedback{},
		byPair:     map[pairKey][]core.Feedback{},
		matrix:     map[core.ConsumerID]map[core.ServiceID]float64{},
	}
}

// currentView returns a view at least as new as every mutation that
// happened-before this call. Fast path: the published view already matches
// the store version. Slow path: serialize on viewMu, re-check, rebuild.
func (s *Store) currentView() *View {
	v := s.view.Load()
	if v != nil && v.version == s.version.Load() && v.gen == s.gen.Load() {
		return v
	}
	s.viewMu.Lock()
	defer s.viewMu.Unlock()
	v = s.view.Load()
	if v != nil && v.version == s.version.Load() && v.gen == s.gen.Load() {
		return v
	}
	nv := s.buildView(v)
	s.view.Store(nv)
	return nv
}

// buildView assembles the next view. It reads the store version first and
// collects shard deltas after, so the resulting view covers at least that
// version (a record's shard apply happens-before its version bump).
//
//lint:immutable buildView is the constructor: every write lands on nv
// before currentView publishes it via Store.view.Store.
func (s *Store) buildView(prev *View) *View {
	version := s.version.Load()
	gen := s.gen.Load()
	if prev == nil || prev.gen != gen {
		prev = emptyView(version, gen)
	}

	// Collect the per-shard record deltas beyond what prev consumed.
	// Aliasing sh.recs is safe: the region below len is append-only.
	var delta []record
	var lens [shardCount]int
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n := len(sh.recs)
		if n > prev.shardLens[i] {
			delta = append(delta, sh.recs[prev.shardLens[i]:n:n]...)
		}
		sh.mu.RUnlock()
		lens[i] = n
	}
	if len(delta) == 0 {
		nv := *prev
		nv.version = version
		nv.gen = gen
		return &nv
	}
	sort.Slice(delta, func(i, j int) bool { return delta[i].seq < delta[j].seq })
	if delta[0].seq <= prev.maxSeq {
		// A racing writer applied a lower sequence number after prev was
		// built (its shard apply landed late). Incremental extension would
		// misorder the log; fall back to a full rebuild from all shards.
		return s.rebuildView(version, gen, lens)
	}

	nv := &View{
		version:   version,
		gen:       gen,
		maxSeq:    delta[len(delta)-1].seq,
		shardLens: lens,
		// In-place appends below are safe: only the viewMu-serialized
		// refresher appends, and readers of published views are bounded
		// by their own slice lengths (accessors clip capacity).
		log:        prev.log,
		seqs:       prev.seqs,
		byService:  maps.Clone(prev.byService),
		byConsumer: maps.Clone(prev.byConsumer),
		byPair:     maps.Clone(prev.byPair),
		matrix:     maps.Clone(prev.matrix),
	}
	newService, newConsumer := false, false
	touchedRows := map[core.ConsumerID]bool{}
	for _, r := range delta {
		fb := r.fb
		nv.log = append(nv.log, fb)
		nv.seqs = append(nv.seqs, r.seq)
		if _, ok := nv.byService[fb.Service]; !ok {
			newService = true
		}
		if _, ok := nv.byConsumer[fb.Consumer]; !ok {
			newConsumer = true
		}
		nv.byService[fb.Service] = append(nv.byService[fb.Service], fb)
		nv.byConsumer[fb.Consumer] = append(nv.byConsumer[fb.Consumer], fb)
		k := pairKey{fb.Consumer, fb.Service}
		nv.byPair[k] = append(nv.byPair[k], fb)
		if v, ok := fb.Ratings[core.FacetOverall]; ok {
			row := nv.matrix[fb.Consumer]
			if !touchedRows[fb.Consumer] {
				// Clone-on-first-touch: prior views share the old row.
				row = maps.Clone(row)
				if row == nil {
					row = map[core.ServiceID]float64{}
				}
				nv.matrix[fb.Consumer] = row
				touchedRows[fb.Consumer] = true
			}
			row[fb.Service] = v // latest wins: delta is sequence-ordered
		}
	}
	nv.services = prev.services
	if newService {
		nv.services = sortedKeys(nv.byService)
	}
	nv.consumers = prev.consumers
	if newConsumer {
		nv.consumers = sortedKeys(nv.byConsumer)
	}
	return nv
}

// rebuildView constructs a view from scratch out of all shard records.
// lens must have been captured from the shards; only the first lens[i]
// records of each shard are read (that region is append-only).
//
//lint:immutable rebuildView is a constructor: nv is unpublished until returned.
func (s *Store) rebuildView(version, gen uint64, lens [shardCount]int) *View {
	var all []record
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		all = append(all, sh.recs[:lens[i]:lens[i]]...)
		sh.mu.RUnlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	nv := emptyView(version, gen)
	nv.shardLens = lens
	if len(all) > 0 {
		nv.maxSeq = all[len(all)-1].seq
	}
	nv.log = make([]core.Feedback, 0, len(all))
	nv.seqs = make([]uint64, 0, len(all))
	for _, r := range all {
		fb := r.fb
		nv.log = append(nv.log, fb)
		nv.seqs = append(nv.seqs, r.seq)
		nv.byService[fb.Service] = append(nv.byService[fb.Service], fb)
		nv.byConsumer[fb.Consumer] = append(nv.byConsumer[fb.Consumer], fb)
		k := pairKey{fb.Consumer, fb.Service}
		nv.byPair[k] = append(nv.byPair[k], fb)
		if v, ok := fb.Ratings[core.FacetOverall]; ok {
			row := nv.matrix[fb.Consumer]
			if row == nil {
				row = map[core.ServiceID]float64{}
				nv.matrix[fb.Consumer] = row
			}
			row[fb.Service] = v
		}
	}
	nv.services = sortedKeys(nv.byService)
	nv.consumers = sortedKeys(nv.byConsumer)
	return nv
}

// bySeq yields the store's records in sequence order, the order buildView
// gives the log, merged straight from the shard segments without building
// a view. A segment is normally in sequence order already; one that a
// racing writer left out of order (its shard apply landed after a later
// sequence number's) is sorted on a copy first. Only the records present
// when iteration starts are read (that region is append-only).
func (s *Store) bySeq() iter.Seq[core.Feedback] {
	return func(yield func(core.Feedback) bool) {
		segs := make([][]record, 0, shardCount)
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.RLock()
			seg := sh.recs[:len(sh.recs):len(sh.recs)]
			sh.mu.RUnlock()
			for j := 1; j < len(seg); j++ {
				if seg[j].seq < seg[j-1].seq {
					seg = slices.Clone(seg)
					sort.Slice(seg, func(a, b int) bool { return seg[a].seq < seg[b].seq })
					break
				}
			}
			if len(seg) > 0 {
				segs = append(segs, seg)
			}
		}
		for len(segs) > 0 {
			m := 0
			for i := 1; i < len(segs); i++ {
				if segs[i][0].seq < segs[m][0].seq {
					m = i
				}
			}
			if !yield(segs[m][0].fb) {
				return
			}
			if segs[m] = segs[m][1:]; len(segs[m]) == 0 {
				segs = slices.Delete(segs, m, m+1)
			}
		}
	}
}

// sortedKeys returns the map's keys in ascending order.
func sortedKeys[K ~string, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
