package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
)

// row is one parsed `go test -bench` result line: the benchmark's
// package, its name without the Benchmark prefix or -procs suffix, its
// GOMAXPROCS, iteration count, and every reported unit (ns/op, B/op,
// allocs/op and custom b.ReportMetric units). One history entry also
// keeps three load-test runs against wsxd as rows named LoadTest/mix, one
// per server GOMAXPROCS, with no iteration count.
//
// A row is immutable after publish: once it lands in the ledger it is a
// measurement, and the gate depends on nobody editing it in place.
type row struct {
	Package    string             `json:"package"`
	Name       string             `json:"name"`
	Procs      int                `json:"procs"`
	Iterations int64              `json:"iterations,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
}

// key identifies a row within an entry, e.g. ./internal/trust/cf/Submit-1.
func (r row) key() string { return r.Package + "/" + r.Name + "-" + strconv.Itoa(r.Procs) }

// fingerprint names the machine an entry was measured on.
type fingerprint struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
}

func thisMachine() fingerprint {
	return fingerprint{runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU()}
}

func (f fingerprint) String() string {
	return fmt.Sprintf("%s %s/%s, %d CPU", f.GoVersion, f.GOOS, f.GOARCH, f.NumCPU)
}

// entry is one job set's rows as measured on one machine.
type entry struct {
	ID          string `json:"id"`
	Description string `json:"description"`
	fingerprint
	Rows []row `json:"rows"`
}

func loadLedger(path string) ([]entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l []entry
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return l, nil
}

func saveLedger(path string, l []entry) error {
	buf, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// record folds fresh rows into the entry for (id, fp): a row with the
// same key is replaced in place and the rest are appended. With no such
// entry it appends a new one. Entries under other keys are history
// measured elsewhere and stay untouched.
func record(l []entry, id, description string, fp fingerprint, fresh []row) []entry {
	i := slices.IndexFunc(l, func(e entry) bool { return e.ID == id && e.fingerprint == fp })
	if i < 0 {
		return append(l, entry{ID: id, Description: description, fingerprint: fp, Rows: fresh})
	}
	rows := l[i].Rows
	for _, r := range fresh {
		if j := slices.IndexFunc(rows, func(o row) bool { return o.key() == r.key() }); j >= 0 {
			rows[j] = r
		} else {
			rows = append(rows, r)
		}
	}
	l[i].Rows = rows
	return l
}

// baseline returns the entry the gate checks id against: the one measured
// on fp when the ledger has it, else the first entry under id.
func baseline(l []entry, id string, fp fingerprint) (entry, error) {
	first := -1
	for i, e := range l {
		if e.ID != id {
			continue
		}
		if e.fingerprint == fp {
			return e, nil
		}
		if first < 0 {
			first = i
		}
	}
	if first < 0 {
		return entry{}, fmt.Errorf("ledger has no %s entry", id)
	}
	return l[first], nil
}
