package latency

import (
	"testing"

	"perfiso/internal/sim"
)

// Every value must land in exactly one bucket, and bucketMax must be
// the largest value mapping back to that bucket — the round-trip that
// makes Quantile answers well-defined.
func TestHistogramIndexRoundTrip(t *testing.T) {
	h := New()
	vals := []int64{0, 1, 2, 100, 255, 256, 257, 1000, 1 << 20, 1<<20 + 7,
		1<<40 - 1, 1 << 40, 1<<62 - 1}
	for _, v := range vals {
		idx := h.index(v)
		hi := h.bucketMax(idx)
		if hi < v {
			t.Fatalf("bucketMax(%d)=%d below the value %d that mapped there", idx, hi, v)
		}
		if h.index(hi) != idx {
			t.Fatalf("bucketMax(%d)=%d maps to bucket %d, not back", idx, hi, h.index(hi))
		}
		if hi+1 > 0 && h.index(hi+1) == idx {
			t.Fatalf("bucket %d upper bound %d is not tight: %d maps there too", idx, hi, hi+1)
		}
	}
	// Buckets are contiguous: consecutive indexes cover consecutive
	// ranges with no gap.
	for idx := 0; idx < 4096; idx++ {
		if h.index(h.bucketMax(idx)+1) != idx+1 {
			t.Fatalf("gap after bucket %d (max %d)", idx, h.bucketMax(idx))
		}
	}
}

// The relative quantization error is bounded by 2^-precision.
func TestHistogramRelativeError(t *testing.T) {
	h := New()
	for v := int64(1); v < 1<<50; v = v*3 + 1 {
		hi := h.bucketMax(h.index(v))
		if float64(hi-v) > float64(v)/128+1 {
			t.Fatalf("value %d quantizes to %d: error %d exceeds bound", v, hi, hi-v)
		}
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	h := New()
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Min() != 0 {
		t.Fatal("empty histogram must answer zero everywhere")
	}
	h.Record(42)
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		if got := h.Quantile(q); got != 42 {
			t.Fatalf("single sample: Quantile(%v)=%d, want 42", q, got)
		}
	}
	if h.Mean() != 42 || h.Min() != 42 || h.Max() != 42 {
		t.Fatal("single-sample aggregates wrong")
	}
	// Negative values clamp to zero instead of corrupting bucket math.
	h.Record(-5)
	if h.Min() != 0 || h.Count() != 2 {
		t.Fatalf("negative record: min=%d count=%d, want 0, 2", h.Min(), h.Count())
	}
	// q=0 and q=1 are the exact extremes even though the top value
	// sits in a wide bucket.
	big := NewWithPrecision(4)
	big.Record(3)
	big.Record(1_000_000_007)
	if big.Quantile(0) != 3 || big.Quantile(1) != 1_000_000_007 {
		t.Fatalf("extremes not exact: q0=%d q1=%d", big.Quantile(0), big.Quantile(1))
	}
}

// Quantiles must never answer outside the observed range, whatever the
// bucket widths.
func TestHistogramQuantileClamped(t *testing.T) {
	h := NewWithPrecision(2)
	h.Record(1000)
	h.Record(1001)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.999} {
		v := h.Quantile(q)
		if v < 1000 || v > 1001 {
			t.Fatalf("Quantile(%v)=%d outside observed [1000,1001]", q, v)
		}
	}
}

// merge(a,b) == merge(b,a), and any grouping of partial histograms
// reproduces the one that saw every value — the property that makes
// parallel recording deterministic.
func TestHistogramMergeCommutativeAssociative(t *testing.T) {
	rng := sim.NewRNG(7)
	mk := func(n int) *Histogram {
		h := New()
		for i := 0; i < n; i++ {
			h.Record(int64(rng.Intn(1 << 30)))
		}
		return h
	}
	a, b, c := mk(100), mk(37), mk(250)

	ab := a.Clone()
	ab.Merge(b)
	ba := b.Clone()
	ba.Merge(a)
	if !equal(ab, ba) {
		t.Fatal("merge is not commutative")
	}

	abc1 := ab.Clone()
	abc1.Merge(c)
	bc := b.Clone()
	bc.Merge(c)
	abc2 := a.Clone()
	abc2.Merge(bc)
	if !equal(abc1, abc2) {
		t.Fatal("merge is not associative")
	}
}

// Splitting one observation stream across 8 shards and merging must
// answer byte-identical quantiles to sequential recording — the
// parallel-harness contract.
func TestHistogramParallelMergeIdenticalQuantiles(t *testing.T) {
	rng := sim.NewRNG(99)
	var vals []int64
	for i := 0; i < 5000; i++ {
		vals = append(vals, int64(rng.Intn(1<<35)))
	}
	seq := New()
	for _, v := range vals {
		seq.Record(v)
	}
	shards := make([]*Histogram, 8)
	for i := range shards {
		shards[i] = New()
	}
	for i, v := range vals {
		shards[i%8].Record(v)
	}
	par := New()
	for _, s := range shards {
		par.Merge(s)
	}
	if !equal(seq, par) {
		t.Fatal("8-way sharded merge differs from sequential recording")
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
		a, b := seq.Quantile(q), par.Quantile(q)
		if a != b {
			t.Fatalf("Quantile(%v): sequential %d vs merged %d", q, a, b)
		}
	}
}

func TestHistogramMergePrecisionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging mismatched precisions must panic")
		}
	}()
	a, b := NewWithPrecision(7), NewWithPrecision(5)
	b.Record(1)
	a.Merge(b)
}

// equal compares full histogram state, bucket by bucket index (the
// two may store different ranges).
func equal(a, b *Histogram) bool {
	if a.count != b.count || a.sum != b.sum || a.min != b.min || a.max != b.max {
		return false
	}
	lo, hi := min(a.lo, b.lo), max(a.lo+len(a.counts), b.lo+len(b.counts))
	for i := lo; i < hi; i++ {
		if a.countAt(i) != b.countAt(i) {
			return false
		}
	}
	return true
}

// countAt returns bucket i's count, 0 outside the stored range.
func (h *Histogram) countAt(i int) int64 {
	if i < h.lo || i >= h.lo+len(h.counts) {
		return 0
	}
	return h.counts[i-h.lo]
}

// The record path must be zero-alloc: open-arrival workloads record a
// latency per request on the kernel's dispatch path. Same guard style
// as TestKernelDispatchZeroAlloc.
func TestHistogramRecordZeroAlloc(t *testing.T) {
	h := New()
	v := int64(1)
	if avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < 1000; i++ {
			v = v*6364136223846793005 + 1442695040888963407
			h.Record(v & (1<<40 - 1))
		}
	}); avg != 0 {
		t.Fatalf("Histogram.Record allocated %.2f times per 1000 records, want 0", avg)
	}
}

// Tracker.Record is zero-alloc within an existing window (growth only
// happens at window boundaries, once per window).
func TestTrackerRecordZeroAlloc(t *testing.T) {
	r := NewRegistry(sim.Second)
	tr := r.Tracker("svc", 2, SLO{Threshold: 10 * sim.Millisecond, Target: 0.99})
	tr.Record(500*sim.Millisecond, sim.Millisecond) // open the window
	if avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < 1000; i++ {
			tr.Record(500*sim.Millisecond, sim.Millisecond*sim.Time(i%20))
		}
	}); avg != 0 {
		t.Fatalf("Tracker.Record allocated %.2f times per 1000 records, want 0", avg)
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i) * 1009)
	}
}

// Exhaustive small-value check: the exact range really is exact.
func TestHistogramExactSmallValues(t *testing.T) {
	h := New()
	m := int64(h.m)
	for v := int64(0); v < 2*m; v++ {
		if got := h.bucketMax(h.index(v)); got != v {
			t.Fatalf("small value %d not exact: bucket answers %d", v, got)
		}
	}
}
