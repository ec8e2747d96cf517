// Package latency is the tail-latency half of the observability layer:
// log-bucketed, mergeable, integer-nanosecond histograms (the HDR-style
// structure request-latency monitoring uses), windowed per-SPU
// percentile timelines, and SLO attainment/error-budget tracking.
//
// The paper's argument is about *observed* performance, and what breaks
// first under uncontrolled sharing is the tail (p99/p999), not the
// mean. metrics.Distribution keeps every observation for exact
// quantiles, which is right for rare events (CPU revocations) but
// cannot survive open-arrival request volumes; the histogram here
// stores only the powers of two its values have landed in (2^prec
// int64 buckets each), so its size follows the spread of the values,
// never their number. It allocates only when a value lands outside
// the range seen so far, and merges exactly — two halves of a run
// poured together quantize identically to one histogram that saw
// every value.
//
// Determinism rules (the package contract, tested):
//
//   - Values are integer nanoseconds on the simulation clock; no float
//     enters the recorded state.
//   - Bucket math is pure integer bit manipulation, so the same value
//     always lands in the same bucket on every platform.
//   - Merge is commutative and associative (counts add), so any
//     parallel split of a run's observations reproduces the bytes of
//     the sequential export.
//   - Quantile answers the recorded bucket's upper bound clamped to the
//     exact observed min/max — never an interpolation — so quantile
//     output is integer and stable.
//
// A nil *Tracker (from a nil *Registry, i.e. latency tracking off) is a
// valid no-op sink, following the internal/metrics contract.
package latency

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// DefaultPrecision is the sub-bucket resolution exponent for run-total
// histograms: 2^7 = 128 sub-buckets per power of two, bounding the
// relative quantization error at 1/128 < 0.8%. A histogram at this
// precision spans 1 ns .. ~292 years in 7296 int64 buckets (~57 KB),
// of which it stores the 128 (1 KB) per power of two it has seen.
const DefaultPrecision = 7

// WindowPrecision is the resolution for per-window histograms, where
// thousands may exist per run: 2^5 = 32 sub-buckets per power of two
// (≤3.2% error, 256 B of buckets per power of two seen) is plenty for
// a timeline.
const WindowPrecision = 5

// Histogram is a log-linear (HDR-style) histogram of non-negative
// integer nanoseconds. Values below 2·2^precision are recorded exactly
// (one bucket per nanosecond); above that, each power of two is split
// into 2^precision equal sub-buckets, so the relative error of any
// quantile is bounded by 2^-precision. The exact count, sum, min, and
// max are tracked alongside, so Mean, Min, and Max are exact and
// Quantile never answers outside the observed range.
type Histogram struct {
	prec uint
	m    uint64 // 1 << prec: sub-buckets per power of two
	// counts holds buckets lo .. lo+len(counts)-1. The range is whole
	// runs of m buckets (one power of two each, aligned so run r is
	// indexes [r·m, (r+1)·m)), from the lowest to the highest run a
	// value has landed in; it is empty until the first Record.
	lo     int
	counts []int64

	count int64
	sum   int64
	min   int64
	max   int64
}

// New returns a histogram at DefaultPrecision.
func New() *Histogram { return NewWithPrecision(DefaultPrecision) }

// NewWithPrecision returns a histogram with 2^prec sub-buckets per
// power of two. prec must be in [1, 16].
func NewWithPrecision(prec uint) *Histogram {
	if prec < 1 || prec > 16 {
		panic(fmt.Sprintf("latency: precision %d out of range [1,16]", prec))
	}
	return &Histogram{prec: prec, m: uint64(1) << prec}
}

// index maps a value to its bucket. Pure integer math: values below 2m
// map to themselves; a larger value with top bit k keeps prec bits of
// mantissa, giving buckets of width 2^(k-prec) within [2^k, 2^(k+1)).
// Those are the m indexes [m·(k-prec+1), m·(k-prec+2)): one aligned
// run per power of two, and the runs 0 and 1 for the exact values.
func (h *Histogram) index(v int64) int {
	u := uint64(v)
	if u < 2*h.m {
		return int(u)
	}
	k := uint(bits.Len64(u) - 1)
	return int(h.m*uint64(k-h.prec) + (u >> (k - h.prec)))
}

// bucketMax returns the largest value mapping to bucket idx — the
// quantile answer for that bucket.
func (h *Histogram) bucketMax(idx int) int64 {
	u := uint64(idx)
	if u < 2*h.m {
		return int64(u)
	}
	k := u/h.m + uint64(h.prec) - 1
	sub := u - h.m*(k-uint64(h.prec)) // in [m, 2m)
	return int64((sub+1)<<(k-uint64(h.prec)) - 1)
}

// Record adds one observation. Negative values clamp to zero (a
// latency cannot be negative; the clamp keeps a buggy caller from
// corrupting the bucket math). Record allocates only when a value
// lands outside the range seen so far: at most once per power of two
// over the histogram's life.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	i := h.index(v)
	if i < h.lo || i >= h.lo+len(h.counts) {
		h.cover(i, i)
	}
	h.counts[i-h.lo]++
}

// cover grows counts to hold buckets lo..hi, widened to whole runs of
// m buckets. Existing counts keep their bucket indexes.
func (h *Histogram) cover(lo, hi int) {
	m := int(h.m)
	lo, hi = lo/m*m, (hi/m+1)*m
	if len(h.counts) > 0 {
		lo, hi = min(lo, h.lo), max(hi, h.lo+len(h.counts))
	}
	counts := make([]int64, hi-lo)
	if len(h.counts) > 0 {
		copy(counts[h.lo-lo:], h.counts)
	}
	h.lo, h.counts = lo, counts
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the exact sum of all observations in nanoseconds.
func (h *Histogram) Sum() int64 { return h.sum }

// Min returns the exact smallest observation (0 when empty).
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact largest observation (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the exact integer mean (sum/count, truncated), 0 when
// empty. Integer so exports stay byte-stable.
func (h *Histogram) Mean() int64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count
}

// Quantile returns the q-quantile (0..1) in nanoseconds: the upper
// bound of the bucket holding the ⌈q·count⌉-th smallest observation,
// clamped to the exact observed [min, max]. 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := int64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum >= target {
			v := h.bucketMax(h.lo + i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// Merge folds o into h: counts add bucket-wise and the exact
// aggregates combine. Both histograms must share a precision. Merging
// is commutative and associative, so any grouping of partial
// histograms reproduces the histogram that saw every value.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	if o.prec != h.prec {
		panic(fmt.Sprintf("latency: merging histograms of precision %d and %d", o.prec, h.prec))
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	if o.lo < h.lo || o.lo+len(o.counts) > h.lo+len(h.counts) {
		h.cover(o.lo, o.lo+len(o.counts)-1)
	}
	at := o.lo - h.lo
	for i, c := range o.counts {
		if c != 0 {
			h.counts[at+i] += c
		}
	}
}

// Clone returns an independent snapshot of the histogram.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.counts = slices.Clone(h.counts)
	return &c
}
