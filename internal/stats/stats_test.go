package stats

import (
	"math"
	"reflect"
	"testing"

	"perfiso/internal/sim"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 6} {
		s.Add(v)
	}
	if s.N() != 3 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 4 {
		t.Fatalf("Mean = %g", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 6 {
		t.Fatalf("Min/Max = %g/%g", s.Min(), s.Max())
	}
	if s.Sum() != 12 {
		t.Fatalf("Sum = %g", s.Sum())
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestSampleAddTime(t *testing.T) {
	var s Sample
	s.AddTime(500 * sim.Millisecond)
	if s.Mean() != 0.5 {
		t.Fatalf("AddTime mean = %g", s.Mean())
	}
}

func TestTimeWeightedAverage(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 1)          // value 1 for 1s
	w.Set(sim.Second, 3) // value 3 for 1s
	got := w.Average(2 * sim.Second)
	if math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("Average = %g, want 2", got)
	}
	if w.Max() != 3 {
		t.Fatalf("Max = %g", w.Max())
	}
}

func TestTimeWeightedAdd(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 0)
	w.Add(sim.Second, 4) // value 4 from t=1s
	if w.Value() != 4 {
		t.Fatalf("Value = %g", w.Value())
	}
	got := w.Average(2 * sim.Second) // 0 for 1s, 4 for 1s
	if math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("Average = %g, want 2", got)
	}
}

func TestTimeWeightedNoElapsed(t *testing.T) {
	var w TimeWeighted
	w.Set(sim.Second, 5)
	if w.Average(sim.Second) != 0 {
		t.Fatal("zero-duration window should average 0")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Add(3, 30)
	s.Add(1, 10)
	s.Add(2, 20)
	want := []Point{{3, 30}, {1, 10}, {2, 20}}
	if !reflect.DeepEqual(s.Points, want) {
		t.Fatalf("Points = %v, want %v (Add order)", s.Points, want)
	}
}

// Regression: Average used to fold the open segment into the tracker
// as a side effect (it called Set), advancing w.last to the query
// time. Peeking at the average ahead of the sample stream then made
// the next legitimate Set panic with "time going backwards".
func TestTimeWeightedAverageIsSideEffectFree(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 1)
	// Peek at the running average at t=2s...
	if got := w.Average(2 * sim.Second); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("Average(2s) = %g, want 1", got)
	}
	// ...then a real observation arrives at t=1s. The query must not
	// have moved the tracker's clock.
	w.Set(sim.Second, 3)
	first := w.Average(2 * sim.Second) // 1 for 1s, 3 for 1s
	second := w.Average(2 * sim.Second)
	if first != second {
		t.Fatalf("repeated Average diverged: %g then %g", first, second)
	}
	if math.Abs(first-2.0) > 1e-9 {
		t.Fatalf("Average(2s) = %g, want 2", first)
	}
	// A later query sees the open segment grow linearly.
	if got := w.Average(3 * sim.Second); math.Abs(got-7.0/3.0) > 1e-9 {
		t.Fatalf("Average(3s) = %g, want %g", got, 7.0/3.0)
	}
}

// Regression: Max seeded its running maximum with the zero value, so an
// all-negative tracker reported 0 — a value it never held.
func TestTimeWeightedMaxAllNegative(t *testing.T) {
	var w TimeWeighted
	w.Set(0, -5)
	w.Set(sim.Second, -2)
	w.Set(2*sim.Second, -9)
	if got := w.Max(); got != -2 {
		t.Fatalf("Max = %g, want -2 (zero was never observed)", got)
	}
}
