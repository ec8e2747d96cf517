// Package stats provides the small statistics toolkit used by the kernel
// model and the experiment harness: scalar sample accumulators,
// time-weighted value trackers (for utilization), and a plain-text table
// renderer for paper-style output.
package stats

import (
	"fmt"

	"perfiso/internal/sim"
)

// Sample accumulates observations of a scalar quantity and reports its
// count, sum, mean and extremes. The zero value is ready to use.
type Sample struct {
	n        int64
	sum      float64
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

// FormatPercent renders a percentage (negative values keep their sign,
// marking deltas like "-39%").
func FormatPercent(v float64) string { return fmt.Sprintf("%.0f%%", v) }

// FormatRatio renders a multiplicative ratio.
func FormatRatio(v float64) string { return fmt.Sprintf("%.2fx", v) }
