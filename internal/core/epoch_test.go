package core

import "testing"

func TestMemoRecomputesOnlyOnBump(t *testing.T) {
	var e Epoch
	var m Memo[int]
	calls := 0
	compute := func() int { calls++; return calls * 10 }

	if got := m.Get(&e, compute); got != 10 {
		t.Fatalf("first Get = %d, want 10", got)
	}
	if got := m.Get(&e, compute); got != 10 {
		t.Fatalf("cached Get = %d, want 10", got)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times before bump, want 1", calls)
	}
	e.Bump()
	if got := m.Get(&e, compute); got != 20 {
		t.Fatalf("post-bump Get = %d, want 20", got)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times after bump, want 2", calls)
	}
}

func TestMemoZeroValueDistinctFromCached(t *testing.T) {
	// A memo holding the zero value at epoch 0 must not be confused with
	// an empty memo: compute must run exactly once.
	var e Epoch
	var m Memo[int]
	calls := 0
	zero := func() int { calls++; return 0 }
	m.Get(&e, zero)
	m.Get(&e, zero)
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
}

func TestMemoUpdateAndInvalidate(t *testing.T) {
	var e Epoch
	var m Memo[string]
	m.Update(&e, "forced")
	if got := m.Get(&e, func() string { return "computed" }); got != "forced" {
		t.Fatalf("Get after Update = %q, want forced", got)
	}
	e.Bump()
	if got := m.Get(&e, func() string { return "computed" }); got != "computed" {
		t.Fatalf("Get after Bump = %q, want computed", got)
	}
}

func TestKeyedMemoPerKeyDrop(t *testing.T) {
	var km KeyedMemo[string, int]
	calls := map[string]int{}
	get := func(k string) int {
		return km.Get(nil, k, func() int { calls[k]++; return calls[k] })
	}
	if get("a") != 1 || get("a") != 1 || get("b") != 1 {
		t.Fatal("unexpected cached values")
	}
	km.Drop("a")
	if get("a") != 2 {
		t.Fatal("Drop(a) did not evict a")
	}
	if get("b") != 1 {
		t.Fatal("Drop(a) evicted b")
	}
	if km.Len() != 2 {
		t.Fatalf("Len = %d, want 2", km.Len())
	}
}

func TestKeyedMemoEpochBulkInvalidation(t *testing.T) {
	var e Epoch
	var km KeyedMemo[string, int]
	calls := 0
	get := func(k string) int {
		return km.Get(&e, k, func() int { calls++; return calls })
	}
	get("a")
	get("b")
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
	get("a")
	if calls != 2 {
		t.Fatal("cached read recomputed")
	}
	e.Bump()
	get("a")
	if calls != 3 {
		t.Fatal("epoch bump did not invalidate")
	}
	if km.Len() != 1 {
		t.Fatalf("Len after bump+one Get = %d, want 1", km.Len())
	}
}

// TestKeyedMemoEpochKeepsMap: discarding a generation keeps the map, so a
// memo whose epoch advances before every read (resource's Amazon bumps it
// on every Submit) re-caches without allocating.
func TestKeyedMemoEpochKeepsMap(t *testing.T) {
	var e Epoch
	var km KeyedMemo[string, int]
	f := func() int { return 7 }
	for _, k := range []string{"a", "b", "c"} {
		km.Get(&e, k, f)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		e.Bump()
		km.Get(&e, "a", f)
	}); allocs != 0 {
		t.Fatalf("Bump+Get: %v allocs/op, want 0", allocs)
	}
	if km.Len() != 1 {
		t.Fatalf("Len after bump+one Get = %d, want 1", km.Len())
	}
}
