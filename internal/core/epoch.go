package core

// Epoch is a mutation counter for invalidate-on-write memoization. A
// mechanism bumps its epoch whenever state that derived values depend on
// changes; Memo values cached at an older epoch recompute lazily on next
// read. This generalizes the ad-hoc `dirty bool` EigenTrust used: an
// epoch distinguishes *which* write invalidated a value, so several
// independent memos can hang off one counter without clearing each other.
//
// Epoch and the memo types are NOT internally synchronized: callers hold
// the same mutex that guards the underlying state (the usual mechanism
// `mu`), which also makes the read-check/compute/store sequence atomic.
type Epoch struct {
	n uint64
}

// Bump records a mutation, invalidating every memo keyed to this epoch.
func (e *Epoch) Bump() { e.n++ }

// N returns the current mutation count (0 for a fresh Epoch).
func (e *Epoch) N() uint64 { return e.n }

// Memo caches a single derived value until its Epoch advances.
//
// The zero value is empty and recomputes on first Get. Memoization is
// pure: Get runs the caller's compute func — the original
// recompute-from-scratch path, same iteration order, same float
// summation order — and replays its stored result bit-for-bit until the
// epoch moves, so cached and uncached scores are byte-identical.
type Memo[T any] struct {
	at    uint64
	valid bool
	v     T
}

// Get returns the cached value, recomputing via compute if the memo is
// empty or the epoch has advanced since the value was stored.
func (m *Memo[T]) Get(e *Epoch, compute func() T) T {
	if !m.valid || m.at != e.n {
		m.v = compute()
		m.at = e.n
		m.valid = true
	}
	return m.v
}

// Update force-stores v as current for the epoch. Tick-driven
// mechanisms (EigenTrust, PageRank) use it: Tick always recomputes —
// it also charges per-round messages — and publishes the result here so
// Score stays lazy.
func (m *Memo[T]) Update(e *Epoch, v T) {
	m.v = v
	m.at = e.n
	m.valid = true
}

// KeyedMemo caches derived values per key with two invalidation grains:
// Drop(k) evicts one entry (a write that only perturbs k), while an
// Epoch advance — when one is supplied to Get — discards the whole
// generation (a write that perturbs everything, e.g. a global
// normalizer). Pass a nil Epoch when only per-key invalidation applies.
//
// The zero value is ready to use.
type KeyedMemo[K comparable, V any] struct {
	at uint64
	m  map[K]V
}

// Get returns the value cached for k, computing and storing it on miss.
// If e is non-nil and has advanced since the last access, the entire
// cache is discarded first; the map keeps its buckets, so a memo whose
// epoch advances on every write does not regrow it.
func (km *KeyedMemo[K, V]) Get(e *Epoch, k K, compute func() V) V {
	if e != nil && km.at != e.n {
		clear(km.m)
		km.at = e.n
	}
	if v, ok := km.m[k]; ok {
		return v
	}
	v := compute()
	if km.m == nil {
		km.m = make(map[K]V)
	}
	km.m[k] = v
	return v
}

// Drop evicts the entry for k, if any.
func (km *KeyedMemo[K, V]) Drop(k K) { delete(km.m, k) }

// Len reports the number of cached entries (testing/introspection).
func (km *KeyedMemo[K, V]) Len() int { return len(km.m) }
