// Package stats provides the small statistics toolkit used by the kernel
// model and the experiment harness: scalar sample accumulators,
// time-weighted value trackers (for utilization), fixed-width histograms,
// and a plain-text table renderer for paper-style output.
package stats

import (
	"fmt"
	"math"

	"perfiso/internal/sim"
)

// Sample accumulates observations of a scalar quantity and reports the
// usual summary statistics. The zero value is ready to use.
//
// Variance is tracked with Welford's online algorithm (mean plus the
// centered second moment m2) rather than a raw sum of squares: for
// samples whose spread is small relative to their magnitude — response
// times measured in integer nanoseconds, say — sumSq/n - mean² cancels
// catastrophically and can report a standard deviation of 0 (or pure
// rounding noise) for data that plainly varies.
type Sample struct {
	n        int64
	sum      float64
	mean     float64
	m2       float64 // sum of squared deviations from the running mean
	min, max float64
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
	d := v - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (v - s.mean)
}

// AddTime records a sim.Time observation in seconds.
func (s *Sample) AddTime(t sim.Time) { s.Add(t.Seconds()) }

// N returns the number of observations.
func (s *Sample) N() int64 { return s.n }

// Sum returns the sum of all observations.
func (s *Sample) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Min returns the smallest observation, or 0 with no observations.
func (s *Sample) Min() float64 { return s.min }

// Max returns the largest observation, or 0 with no observations.
func (s *Sample) Max() float64 { return s.max }

// StdDev returns the population standard deviation, or 0 with fewer than
// two observations.
func (s *Sample) StdDev() float64 {
	if s.n < 2 {
		return 0
	}
	v := s.m2 / float64(s.n)
	if v < 0 { // m2 cannot go negative, but stay defensive
		v = 0
	}
	return math.Sqrt(v)
}

// Merge folds other's observations into s, combining the Welford
// moments pairwise (Chan et al.'s parallel variance update).
func (s *Sample) Merge(other *Sample) {
	if other.n == 0 {
		return
	}
	if s.n == 0 || other.min < s.min {
		s.min = other.min
	}
	if s.n == 0 || other.max > s.max {
		s.max = other.max
	}
	d := other.mean - s.mean
	n := float64(s.n + other.n)
	s.m2 += other.m2 + d*d*float64(s.n)*float64(other.n)/n
	s.mean += d * float64(other.n) / n
	s.n += other.n
	s.sum += other.sum
}

// TimeWeighted tracks a piecewise-constant value over simulated time and
// reports its time-weighted average — the natural definition of, e.g.,
// CPU utilization or mean queue depth.
type TimeWeighted struct {
	started  bool
	last     sim.Time
	value    float64
	area     float64
	duration sim.Time
	maxV     float64
}

// Set records that the tracked value changed to v at time now.
func (w *TimeWeighted) Set(now sim.Time, v float64) {
	if w.started {
		dt := now - w.last
		if dt < 0 {
			panic("stats: TimeWeighted observed time going backwards")
		}
		w.area += w.value * dt.Seconds()
		w.duration += dt
		if v > w.maxV {
			w.maxV = v
		}
	} else {
		// First observation seeds the maximum; starting from the zero
		// value would report 0 for all-negative trackers.
		w.maxV = v
	}
	w.started = true
	w.last = now
	w.value = v
}

// Add adjusts the tracked value by delta at time now.
func (w *TimeWeighted) Add(now sim.Time, delta float64) { w.Set(now, w.value+delta) }

// Value returns the current tracked value.
func (w *TimeWeighted) Value() float64 { return w.value }

// Max returns the maximum value ever set.
func (w *TimeWeighted) Max() float64 { return w.maxV }

// Average returns the time-weighted average over [first Set, now],
// counting the still-open final segment at the current value. It is a
// pure read — the tracker is not mutated, so calling it repeatedly (or
// at different times) never folds extra area into the window. It
// returns 0 if no time has elapsed.
func (w *TimeWeighted) Average(now sim.Time) float64 {
	area, duration := w.area, w.duration
	if w.started {
		dt := now - w.last
		if dt < 0 {
			panic("stats: TimeWeighted.Average asked for a time before the last Set")
		}
		area += w.value * dt.Seconds()
		duration += dt
	}
	if duration == 0 {
		return 0
	}
	return area / duration.Seconds()
}

// Area returns the integral of the tracked value over [first Set, now]
// in value·seconds, counting the still-open final segment at the current
// value. Like Average it is a pure read. The invariant auditor uses this
// to cross-check the scheduler's busy-time integral against its per-SPU
// CPU-time ledger.
func (w *TimeWeighted) Area(now sim.Time) float64 {
	area := w.area
	if w.started {
		dt := now - w.last
		if dt < 0 {
			panic("stats: TimeWeighted.Area asked for a time before the last Set")
		}
		area += w.value * dt.Seconds()
	}
	return area
}

// Histogram is a fixed-width bucket histogram with overflow and underflow
// buckets, used for distributions such as per-request disk wait times.
type Histogram struct {
	lo, width float64
	buckets   []int64
	under     int64
	over      int64
	sample    Sample
}

// NewHistogram creates a histogram covering [lo, lo+n*width) in n buckets.
func NewHistogram(lo, width float64, n int) *Histogram {
	if width <= 0 || n <= 0 {
		panic("stats: NewHistogram with non-positive width or bucket count")
	}
	return &Histogram{lo: lo, width: width, buckets: make([]int64, n)}
}

// Add records one observation.
func (h *Histogram) Add(v float64) {
	h.sample.Add(v)
	idx := int(math.Floor((v - h.lo) / h.width))
	switch {
	case idx < 0:
		h.under++
	case idx >= len(h.buckets):
		h.over++
	default:
		h.buckets[idx]++
	}
}

// N returns the total number of observations.
func (h *Histogram) N() int64 { return h.sample.N() }

// Mean returns the mean of all observations (exact, not bucketed).
func (h *Histogram) Mean() float64 { return h.sample.Mean() }

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) int64 { return h.buckets[i] }

// Quantile returns an approximation of the q-quantile (0 <= q <= 1) from
// the bucket boundaries; exact values for under/overflowed data degrade to
// the range edges.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.sample.N()
	if n == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	cum := h.under
	if cum >= target {
		return h.lo
	}
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			return h.lo + float64(i+1)*h.width
		}
	}
	return h.lo + float64(len(h.buckets))*h.width
}

// Point is one (x, y) pair in a Series.
type Point struct {
	X, Y float64
}

// Series is an ordered list of (x, y) points, used for parameter sweeps
// (e.g. response time vs. BW-difference threshold).
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// YAt returns the Y value for the point whose X matches x, or ok=false
// if absent. Matching tolerates float rounding (a relative epsilon), so
// sweep points computed through division — e.g. thresholds built as
// limit/N — still resolve. With several points inside the tolerance the
// closest wins.
func (s *Series) YAt(x float64) (y float64, ok bool) {
	const eps = 1e-9
	best := math.Inf(1)
	for _, p := range s.Points {
		d := math.Abs(p.X - x)
		scale := math.Max(1, math.Max(math.Abs(p.X), math.Abs(x)))
		if d <= eps*scale && d < best {
			best, y, ok = d, p.Y, true
		}
	}
	if !ok {
		return 0, false
	}
	return y, true
}

// FormatPercent renders a percentage (negative values keep their sign,
// marking deltas like "-39%").
func FormatPercent(v float64) string { return fmt.Sprintf("%.0f%%", v) }

// FormatRatio renders a multiplicative ratio.
func FormatRatio(v float64) string { return fmt.Sprintf("%.2fx", v) }
