package disk

import (
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/sim"
)

func TestUsageTableSharesAndRelative(t *testing.T) {
	tab := newUsageTable(500 * sim.Millisecond)
	a, b := core.SPUID(2), core.SPUID(3)
	tab.setShare(a, 1)
	tab.setShare(b, 2) // b owns twice the bandwidth
	tab.charge(0, a, 100)
	tab.charge(0, b, 100)
	if ra, rb := tab.relative(0, a), tab.relative(0, b); ra != 100 || rb != 50 {
		t.Fatalf("relative = %g, %g", ra, rb)
	}
	if mean := tab.MeanRelative(0, []core.SPUID{a, b}); mean != 75 {
		t.Fatalf("mean = %g", mean)
	}
}

func TestUsageTableDecays(t *testing.T) {
	tab := newUsageTable(500 * sim.Millisecond)
	id := core.SPUID(2)
	tab.charge(0, id, 1000)
	got := tab.relative(500*sim.Millisecond, id)
	if got < 499 || got > 501 {
		t.Fatalf("after one half-life: %g, want ~500", got)
	}
}
