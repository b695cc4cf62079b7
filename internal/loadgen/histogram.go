// Package loadgen holds the measurement core of the wsxload open-loop
// driver: an HDR-style latency histogram with bounded relative error and
// fixed memory, and an open-loop arrival pacer. The package is pure
// computation — time sources are injected — so it stays inside the repo's
// determinism lint and is testable without sleeping.
package loadgen

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// subBits fixes the histogram's resolution: each power-of-two range is
// split into 2^subBits linear sub-buckets, bounding the relative error of
// any recorded value to 1/2^subBits (~3.1%).
const subBits = 5

const subCount = 1 << subBits

// numBuckets covers the full uint64 range: values below subCount land in
// exact unit buckets; every higher power-of-two range contributes subCount
// sub-buckets.
const numBuckets = subCount + (64-subBits)*subCount

// Histogram is an HDR-style (log-linear) histogram of non-negative int64
// samples, typically latencies in microseconds. Memory is fixed
// (~2k buckets) regardless of range; recording is O(1); percentile error
// is bounded by the sub-bucket resolution. The zero value is ready to use.
// Histogram is not safe for concurrent use — shard per worker and Merge.
type Histogram struct {
	counts [numBuckets]uint64
	total  uint64
	sum    uint64
	max    uint64
	min    uint64 // valid when total > 0
}

// bucketIndex maps a value to its bucket. Values < subCount are exact;
// above that, the value's top subBits bits after the leading one select a
// linear sub-bucket within its power-of-two range.
func bucketIndex(v uint64) int {
	if v < subCount {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // position of the leading one, >= subBits
	sub := (v >> (uint(exp) - subBits)) & (subCount - 1)
	return int(uint(exp)-subBits+1)*subCount + int(sub)
}

// bucketLow returns the smallest value mapping to bucket i — the
// conservative (under-estimating) representative used for percentiles.
func bucketLow(i int) uint64 {
	if i < subCount {
		return uint64(i)
	}
	rng := i/subCount - 1 // 0-based power-of-two range above the linear region
	sub := uint64(i % subCount)
	exp := uint(rng) + subBits
	return 1<<exp | sub<<(exp-subBits)
}

// Record adds one sample. Negative samples clamp to zero.
//
//lint:hotpath called once per load-test request; fixed-size buckets, no allocation
func (h *Histogram) Record(v int64) {
	u := uint64(0)
	if v > 0 {
		u = uint64(v)
	}
	h.counts[bucketIndex(u)]++
	h.total++
	h.sum += u
	if u > h.max {
		h.max = u
	}
	if h.total == 1 || u < h.min {
		h.min = u
	}
}

// RecordDuration adds one latency sample at microsecond resolution.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(d.Microseconds()) }

// Count reports the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.total }

// Max reports the largest recorded sample exactly.
func (h *Histogram) Max() uint64 { return h.max }

// Min reports the smallest recorded sample exactly (0 when empty).
func (h *Histogram) Min() uint64 { return h.min }

// Mean reports the exact arithmetic mean of recorded samples.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Percentile returns the value at quantile q in [0, 100]: the lower bound
// of the bucket holding the q-th sample (exact for values below subCount,
// within the sub-bucket resolution above). The max percentile reports the
// exact observed maximum.
func (h *Histogram) Percentile(q float64) uint64 {
	if h.total == 0 {
		return 0
	}
	if q >= 100 {
		return h.max
	}
	if q < 0 {
		q = 0
	}
	rank := uint64(math.Ceil(q / 100 * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketLow(i)
		}
	}
	return h.max
}

// Merge folds other into h. Worker-sharded histograms merge into one
// report without locking on the record path.
func (h *Histogram) Merge(other *Histogram) {
	if other.total == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if h.total == 0 || other.min < h.min {
		h.min = other.min
	}
	h.total += other.total
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Summary is the rendered percentile report of one histogram, in
// milliseconds (the histograms record microseconds).
type Summary struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_ms"`
	P90   float64 `json:"p90_ms"`
	P95   float64 `json:"p95_ms"`
	P99   float64 `json:"p99_ms"`
	P999  float64 `json:"p999_ms"`
	Max   float64 `json:"max_ms"`
	Mean  float64 `json:"mean_ms"`
}

// Summarize renders the standard percentile ladder.
func (h *Histogram) Summarize() Summary {
	ms := func(us uint64) float64 { return float64(us) / 1000 }
	return Summary{
		Count: h.total,
		P50:   ms(h.Percentile(50)),
		P90:   ms(h.Percentile(90)),
		P95:   ms(h.Percentile(95)),
		P99:   ms(h.Percentile(99)),
		P999:  ms(h.Percentile(99.9)),
		Max:   ms(h.max),
		Mean:  h.Mean() / 1000,
	}
}

// String renders a compact one-line report for terminal output.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d p50=%.2fms p90=%.2fms p95=%.2fms p99=%.2fms p99.9=%.2fms max=%.2fms",
		s.Count, s.P50, s.P90, s.P95, s.P99, s.P999, s.Max)
}
