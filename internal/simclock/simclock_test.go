package simclock

import (
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualStartsAtEpoch(t *testing.T) {
	v := NewVirtual()
	if got := v.Now(); !got.Equal(Epoch) {
		t.Fatalf("Now() = %v, want Epoch %v", got, Epoch)
	}
}

func TestVirtualAdvance(t *testing.T) {
	v := NewVirtual()
	v.Advance(90 * time.Second)
	if got, want := v.Now(), Epoch.Add(90*time.Second); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
	v.Advance(0) // zero advance is legal
	if got, want := v.Now(), Epoch.Add(90*time.Second); !got.Equal(want) {
		t.Fatalf("after zero advance Now() = %v, want %v", got, want)
	}
}

func TestVirtualAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewVirtual().Advance(-time.Second)
}

func TestFixed(t *testing.T) {
	at := Epoch.Add(42 * time.Minute)
	c := Fixed(at)
	if !c.Now().Equal(at) {
		t.Fatalf("Fixed clock Now() = %v, want %v", c.Now(), at)
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed produced diverging sequences")
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	// Same root seed, same name: identical streams.
	a, b := Stream(1, "providers"), Stream(1, "providers")
	if a.Int63() != b.Int63() {
		t.Fatal("identical stream names diverged")
	}
	// Different names: streams differ (overwhelmingly likely in 10 draws).
	c, d := Stream(1, "providers"), Stream(1, "consumers")
	same := true
	for i := 0; i < 10; i++ {
		if c.Int63() != d.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("differently named streams produced identical draws")
	}
}

func TestStreamNameSensitivityProperty(t *testing.T) {
	// Property: for any seed and any pair of distinct names, the first draws
	// almost surely differ. testing/quick feeds arbitrary seeds/names.
	f := func(seed int64, name1, name2 string) bool {
		if name1 == name2 {
			return true
		}
		// A single equal first-draw is possible but astronomically unlikely;
		// compare three draws to make the property robust.
		a, b := Stream(seed, name1), Stream(seed, name2)
		for i := 0; i < 3; i++ {
			if a.Int63() != b.Int63() {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
