package experiment

import (
	"testing"

	"perfiso/internal/core"
)

// Across the load sweep: PIso and Quo keep the victim flat; SMP's
// victim degrades monotonically with background load. (Loads 1-2 keep
// the test fast; RunSensitivity defaults to 1-3 for the harness.)
func TestSensitivitySweepShape(t *testing.T) {
	r := RunSensitivity([]int{1, 2})
	smp := r.Victim[core.SMP].Points // in load order
	for i := 1; i < len(smp); i++ {
		if smp[i].Y < smp[i-1].Y-2 {
			t.Errorf("SMP victim improved with more load: %v", smp)
		}
	}
	if last := smp[len(smp)-1].Y; last < 125 {
		t.Errorf("SMP victim only %.0f%% at max load; interference too weak", last)
	}
	for _, scheme := range []core.Scheme{core.Quo, core.PIso} {
		for _, p := range r.Victim[scheme].Points {
			if p.Y > 112 {
				t.Errorf("%v victim at load %.0f reached %.0f%%: isolation leak", scheme, p.X, p.Y)
			}
		}
	}
	if r.Table().NumRows() != 2 {
		t.Fatal("table rows")
	}
}
