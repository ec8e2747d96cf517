package bwmeter

import (
	"math"
	"testing"
	"testing/quick"

	"perfiso/internal/core"
	"perfiso/internal/sim"
)

func TestMeterHalfLife(t *testing.T) {
	m := NewMeter(500 * sim.Millisecond)
	m.Add(0, 1000)
	if got := m.Get(500 * sim.Millisecond); math.Abs(got-500) > 0.5 {
		t.Fatalf("after one half-life: %g, want ~500", got)
	}
	if got := m.Get(1500 * sim.Millisecond); math.Abs(got-125) > 0.5 {
		t.Fatalf("after three half-lives: %g, want ~125", got)
	}
}

func TestMeterAccumulates(t *testing.T) {
	m := NewMeter(500 * sim.Millisecond)
	m.Add(0, 100)
	m.Add(0, 100)
	if got := m.Get(0); got != 200 {
		t.Fatalf("got %g, want 200", got)
	}
}

func TestMeterSnapsToZero(t *testing.T) {
	m := NewMeter(500 * sim.Millisecond)
	m.Add(0, 1e6)
	if got := m.Get(100 * sim.Second); got != 0 {
		t.Fatalf("long-idle meter = %g, want exactly 0", got)
	}
}

func TestMeterDefaultHalfLife(t *testing.T) {
	if NewMeter(0).HalfLife() != DefaultHalfLife {
		t.Fatal("default half-life not applied")
	}
	if DefaultHalfLife != 500*sim.Millisecond {
		t.Fatal("the paper decays by half every 500 ms")
	}
}

// Property: a meter never goes negative and never exceeds the undecayed
// sum of its charges.
func TestPropertyMeterBounds(t *testing.T) {
	f := func(charges []uint16, gaps []uint16) bool {
		m := NewMeter(500 * sim.Millisecond)
		var now sim.Time
		var total float64
		for i, c := range charges {
			if i < len(gaps) {
				now += sim.Time(gaps[i]) * sim.Millisecond
			}
			m.Add(now, float64(c))
			total += float64(c)
			v := m.Get(now)
			if v < 0 || v > total+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: decay is monotone — reading later never yields more.
func TestPropertyMeterMonotoneDecay(t *testing.T) {
	f := func(amount uint16, d1, d2 uint16) bool {
		m := NewMeter(0)
		m.Add(0, float64(amount))
		t1 := sim.Time(d1) * sim.Millisecond
		t2 := t1 + sim.Time(d2)*sim.Millisecond
		v1 := m.Get(t1)
		v2 := m.Get(t2)
		return v2 <= v1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTableDefaults(t *testing.T) {
	tab := NewTable(0)
	id := core.SPUID(5)
	if tab.Share(id) != 1 {
		t.Fatal("default share should be 1")
	}
	tab.SetShare(id, -3)
	if tab.Share(id) != 1 {
		t.Fatal("non-positive share should coerce to 1")
	}
	if tab.Relative(0, id) != 0 {
		t.Fatal("unknown SPU should read 0 usage")
	}
	if tab.MeanRelative(0, nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
}

func TestTableRelativeUsesShares(t *testing.T) {
	tab := NewTable(0)
	a, b := core.SPUID(2), core.SPUID(3)
	tab.SetShare(b, 4)
	tab.Charge(0, a, 400)
	tab.Charge(0, b, 400)
	if tab.Relative(0, a) != 400 || tab.Relative(0, b) != 100 {
		t.Fatalf("relative = %g, %g", tab.Relative(0, a), tab.Relative(0, b))
	}
}

func TestUsageTableSharesAndRelative(t *testing.T) {
	tab := NewTable(500 * sim.Millisecond)
	a, b := core.SPUID(2), core.SPUID(3)
	tab.SetShare(a, 1)
	tab.SetShare(b, 2) // b owns twice the bandwidth
	tab.Charge(0, a, 100)
	tab.Charge(0, b, 100)
	if ra, rb := tab.Relative(0, a), tab.Relative(0, b); ra != 100 || rb != 50 {
		t.Fatalf("relative = %g, %g", ra, rb)
	}
	if mean := tab.MeanRelative(0, []core.SPUID{a, b}); mean != 75 {
		t.Fatalf("mean = %g", mean)
	}
}

func TestUsageTableDecays(t *testing.T) {
	tab := NewTable(500 * sim.Millisecond)
	id := core.SPUID(2)
	tab.Charge(0, id, 1000)
	got := tab.Relative(500*sim.Millisecond, id)
	if got < 499 || got > 501 {
		t.Fatalf("after one half-life: %g, want ~500", got)
	}
}
