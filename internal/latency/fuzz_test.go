package latency

import (
	"math"
	"slices"
	"testing"

	"perfiso/internal/sim"
)

// dense is the reference FuzzHistogramMergeQuantile compares against:
// a histogram with one counter for every bucket index a value can map
// to, the storage Histogram used before it became range-sized. It
// shares only index and bucketMax, whose round trip
// TestHistogramIndexRoundTrip checks on its own.
type dense struct {
	h                    *Histogram // index and bucketMax only
	counts               []int64
	count, sum, min, max int64
}

func newDense(prec uint) *dense {
	h := NewWithPrecision(prec)
	return &dense{h: h, counts: make([]int64, h.m*(65-uint64(prec)))}
}

func (d *dense) record(v int64) {
	if v < 0 {
		v = 0
	}
	if d.count == 0 || v < d.min {
		d.min = v
	}
	if v > d.max {
		d.max = v
	}
	d.count++
	d.sum += v
	d.counts[d.h.index(v)]++
}

func (d *dense) mean() int64 {
	if d.count == 0 {
		return 0
	}
	return d.sum / d.count
}

func (d *dense) quantile(q float64) int64 {
	switch {
	case d.count == 0:
		return 0
	case q <= 0:
		return d.min
	case q >= 1:
		return d.max
	}
	target := max(int64(math.Ceil(q*float64(d.count))), 1)
	var cum int64
	for i, c := range d.counts {
		cum += c
		if c != 0 && cum >= target {
			return min(max(d.h.bucketMax(i), d.min), d.max)
		}
	}
	return d.max
}

// fuzzQuantiles are the quantiles every exported line and table reads.
var fuzzQuantiles = []float64{0, .001, .5, .9, .99, .999, 1}

// agree fails t unless h answers every aggregate and quantile the way
// the dense reference d does, and stores exactly the runs of buckets
// between its smallest and largest value.
func agree(t *testing.T, what string, h *Histogram, d *dense) {
	t.Helper()
	if h.Count() != d.count || h.Sum() != d.sum || h.Min() != d.min ||
		h.Max() != d.max || h.Mean() != d.mean() {
		t.Fatalf("%s: count/sum/min/max/mean %d/%d/%d/%d/%d, reference %d/%d/%d/%d/%d", what,
			h.Count(), h.Sum(), h.Min(), h.Max(), h.Mean(), d.count, d.sum, d.min, d.max, d.mean())
	}
	for _, q := range fuzzQuantiles {
		if got, want := h.Quantile(q), d.quantile(q); got != want {
			t.Fatalf("%s: Quantile(%v) = %d, reference %d", what, q, got, want)
		}
	}
	if h.count == 0 {
		return
	}
	m := int(h.m)
	if lo, hi := h.index(h.min)/m*m, (h.index(h.max)/m+1)*m; h.lo != lo || h.lo+len(h.counts) != hi {
		t.Fatalf("%s: stores buckets [%d, %d), values span runs [%d, %d)",
			what, h.lo, h.lo+len(h.counts), lo, hi)
	}
}

// fuzzBytes hands out a fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return int(c)
}

// FuzzHistogramMergeQuantile records one stream of values into a dense
// reference and, split into up to eight parts, into range-sized
// histograms that a random tree of Merge and Clone calls folds back
// into one. The result must answer Count, Sum, Min, Max, Mean and
// every quantile exactly like the reference.
//
// The first byte picks the precision (5 or 7), the value shape
// (magnitudes over the whole int64 range, a cluster inside one or two
// powers of two, small exact values, or a mix with negatives) and the
// part count; the second the number of values; the third how they are
// split (disjoint ranges, overlapping, or only a few parts used, the
// rest left empty). The remaining bytes pick the merge tree. The seed
// corpus runs with the normal tests; `go test -run '^$' -fuzz
// FuzzHistogramMergeQuantile ./internal/latency` explores further.
func FuzzHistogramMergeQuantile(f *testing.F) {
	// mode = parts-1<<3 | shape<<1 | coarse, then count/4, split, tree.
	f.Add([]byte{3<<3 | 0<<1 | 0, 40, 1, 1, 2, 0, 3, 1, 0, 0, 2, 1})
	f.Add([]byte{7<<3 | 0<<1 | 1, 200, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 0, 1, 2, 3, 3, 2, 1})
	f.Add([]byte{2<<3 | 1<<1 | 1, 100, 2, 5, 4, 3, 2, 1, 0})
	f.Add([]byte{5<<3 | 2<<1 | 0, 255, 1, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 0})
	f.Add([]byte{1<<3 | 3<<1 | 1, 60, 0, 1, 0, 0})
	f.Add([]byte{4<<3 | 3<<1 | 0, 0, 1, 2, 3, 1, 2, 0, 3, 3, 1, 1, 0})
	f.Add([]byte{0, 128, 2, 7})
	f.Add([]byte("clustered windows merged into a run total must not move a quantile"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		mode := in.next()
		prec := uint(7)
		if mode&1 != 0 {
			prec = 5
		}
		shape, parts := mode>>1&3, 1+mode>>3&7
		n := 4 * in.next()
		rng := sim.NewRNG(uint64(len(data))*0x9e3779b97f4a7c15 + uint64(mode))

		vals := make([]int64, n)
		center := int64(1) << rng.Intn(60)
		for i := range vals {
			switch shape {
			case 0: // any magnitude
				vals[i] = int64(rng.Uint64() >> (1 + rng.Intn(63)))
			case 1: // clustered: one or two powers of two
				vals[i] = center + rng.Int63n(center)
			case 2: // small values, stored exactly
				vals[i] = int64(rng.Intn(4 << prec))
			default: // a mix, negatives (clamped to 0) included
				vals[i] = int64(rng.Uint64()>>(1+rng.Intn(63))) - int64(rng.Intn(3))<<rng.Intn(20)
			}
		}
		ref := newDense(prec)
		for _, v := range vals {
			ref.record(v)
		}

		leaves := make([]*Histogram, parts)
		for i := range leaves {
			leaves[i] = NewWithPrecision(prec)
		}
		switch in.next() % 3 {
		case 0: // disjoint: sorted runs of values, some parts empty
			sorted := slices.Clone(vals)
			slices.Sort(sorted)
			for i, v := range sorted {
				leaves[i*parts/max(n, 1)].Record(v)
			}
		case 1: // overlapping
			for _, v := range vals {
				leaves[rng.Intn(parts)].Record(v)
			}
		default: // only the first one or two parts get values
			for _, v := range vals {
				leaves[rng.Intn(min(parts, 2))].Record(v)
			}
		}

		for len(leaves) > 1 {
			i := in.next() % len(leaves)
			j := (i + 1 + in.next()%(len(leaves)-1)) % len(leaves)
			switch in.next() % 4 {
			case 0:
				leaves[i].Merge(leaves[j])
			case 1: // merge into a clone: the original must not move
				before := leaves[i].Clone()
				c := leaves[i].Clone()
				c.Merge(leaves[j])
				if !equal(before, leaves[i]) {
					t.Fatal("merging into a clone changed the original")
				}
				leaves[i] = c
			case 2: // fold into a fresh empty histogram
				e := NewWithPrecision(prec)
				e.Merge(leaves[i])
				e.Merge(leaves[j])
				leaves[i] = e
			default: // empty operands on both sides
				leaves[i].Merge(NewWithPrecision(prec))
				leaves[i].Merge(nil)
				leaves[j].Merge(leaves[i])
				leaves[i] = leaves[j]
			}
			leaves = slices.Delete(leaves, j, j+1)
		}
		got := leaves[0]
		agree(t, "merged", got, ref)

		c := got.Clone()
		agree(t, "clone", c, ref)
		c.Record(math.MaxInt64)
		c.Record(0)
		agree(t, "original after recording into its clone", got, ref)
	})
}

// Values within one power of two occupy one run of 2^prec buckets,
// however many there are: a window of a 10 ms service stores 32
// buckets (256 B), not the 1,920 (15 KB) of a dense array.
func TestHistogramFootprintOnePowerOfTwo(t *testing.T) {
	for _, prec := range []uint{5, 7} {
		for _, k := range []uint{0, 3, prec, prec + 1, 23, 40, 62} {
			h := NewWithPrecision(prec)
			lo := int64(1) << k
			rng := sim.NewRNG(uint64(k))
			for i := 0; i < 10000; i++ {
				h.Record(lo + rng.Int63n(lo))
			}
			if got := cap(h.counts); got > 1<<prec {
				t.Errorf("prec %d, values in [2^%d, 2^%d): %d buckets stored, want at most %d",
					prec, k, k+1, got, 1<<prec)
			}
		}
	}
}

// Recording inside the range already stored allocates nothing at all;
// only a value in a new power of two grows the storage.
func TestHistogramRecordAllocatesOnlyToGrow(t *testing.T) {
	h := NewWithPrecision(WindowPrecision)
	h.Record(int64(sim.Millisecond))
	h.Record(int64(100 * sim.Millisecond))
	stored := len(h.counts)
	if avg := testing.AllocsPerRun(1, func() {
		for i := int64(1); i <= 1000; i++ {
			h.Record(int64(sim.Millisecond) + i*int64(99*sim.Microsecond))
		}
	}); avg != 0 {
		t.Fatalf("%v allocations recording inside the stored range, want 0", avg)
	}
	if len(h.counts) != stored {
		t.Fatalf("storage grew from %d to %d buckets inside its own range", stored, len(h.counts))
	}
	h.Record(int64(10 * sim.Second))
	if len(h.counts) <= stored {
		t.Fatal("a value above the stored range did not grow it")
	}
}
