package experiment

import (
	"testing"

	"perfiso/internal/core"
)

var faultsCache *FaultResult

func faults(t *testing.T) FaultResult {
	t.Helper()
	if faultsCache == nil {
		r := RunFaults()
		faultsCache = &r
	}
	return *faultsCache
}

// The isolation-under-faults claim: when every injected fault lands on
// the victim SPU's resources, an isolating scheme confines the damage
// to the victim, while ShareAll spreads it to the bystander.
func TestFaultIsolationShape(t *testing.T) {
	r := faults(t)
	get := func(s core.Scheme) (victim, steady float64) {
		for _, row := range r.Rows() {
			if row.Scheme == s {
				return row.Victim, row.Steady
			}
		}
		t.Fatalf("scheme %v missing", s)
		return 0, 0
	}
	// The victim must visibly absorb the faults under every scheme —
	// otherwise the plan is a no-op and the test proves nothing.
	for _, s := range Schemes {
		if victim, _ := get(s); victim < 115 {
			t.Errorf("%v victim at %.0f%% of baseline; faults barely landed", s, victim)
		}
	}
	// Isolation: the steady SPU stays within 10% of its fault-free run.
	for _, s := range []core.Scheme{core.Quo, core.PIso} {
		if _, steady := get(s); steady > 110 {
			t.Errorf("%v steady SPU degraded to %.0f%%; fault isolation broken", s, steady)
		}
	}
	// Sharing spreads the faults: the SMP bystander degrades past the
	// isolated schemes' 10% band.
	if _, smpSteady := get(core.SMP); smpSteady <= 110 {
		t.Errorf("SMP steady SPU at %.0f%%; expected shared pools to spread the faults", smpSteady)
	}
}

// A clean baseline run must not be perturbed by the fault machinery
// merely existing: with an empty plan the kernel boots no injector.
func TestFaultBaselineMatchesCleanRun(t *testing.T) {
	r := faults(t)
	for _, s := range Schemes {
		run := r.Runs[s]
		if run.VictimBase <= 0 || run.SteadyBase <= 0 {
			t.Fatalf("%v baseline missing: %+v", s, run)
		}
		if run.Victim < run.VictimBase {
			t.Errorf("%v victim ran faster faulted (%v) than clean (%v)", s, run.Victim, run.VictimBase)
		}
	}
}
