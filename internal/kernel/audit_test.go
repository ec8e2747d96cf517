package kernel

import (
	"strings"
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/invariant"
	"perfiso/internal/metrics"
	"perfiso/internal/proc"
	"perfiso/internal/sim"
)

// TestAuditorEnabledByDefault: every kernel gets an auditor unless
// explicitly opted out, and the tick sweep actually runs.
func TestAuditorEnabledByDefault(t *testing.T) {
	k := New(smallMachine(), core.PIso, Options{MetricsPeriod: 100 * sim.Millisecond})
	k.NewSPU("u", 1)
	k.Boot()
	if k.Auditor() == nil {
		t.Fatal("auditor not created by default")
	}
	if k.Watchdog() == nil {
		t.Fatal("watchdog not created by default")
	}
	p := proc.New(k, core.FirstUserID, "w", []proc.Step{proc.Compute{D: 100 * sim.Millisecond}})
	k.Spawn(p)
	k.Run()
	if k.Auditor().Checks() == 0 {
		t.Fatal("auditor never ran")
	}
	if n := len(k.Auditor().Violations()); n != 0 {
		t.Fatalf("clean run produced %d violations: %v", n, k.Auditor().Violations()[0])
	}
	if got := k.Metrics().Counter(metrics.KeyInvariantChecks, metrics.NoSPU).Value(); got == 0 {
		t.Fatal("invariant.checks metric not counted")
	}
	if off := New(smallMachine(), core.PIso, Options{AuditDisabled: true}); off.Auditor() != nil {
		t.Fatal("opt-out ignored")
	}
}

// TestAuditorCatchesFrameCorruption is the negative control demanded by
// the acceptance criteria: deliberately corrupt the frame accounting
// (a phantom memory charge with no frame behind it) and the auditor
// must fire at the next sweep.
func TestAuditorCatchesFrameCorruption(t *testing.T) {
	k := New(smallMachine(), core.PIso, Options{})
	s := k.NewSPU("u", 1)
	k.Boot()
	k.RunUntil(50 * sim.Millisecond)
	s.Charge(core.Memory, 1) // a page the memory manager never granted
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("auditor did not fire on corrupted frame accounting")
		}
		v, ok := r.(invariant.Violation)
		if !ok {
			t.Fatalf("panic value %T, want invariant.Violation", r)
		}
		if v.Check != "mem" {
			t.Fatalf("violation check %q, want mem", v.Check)
		}
		if !strings.Contains(v.Error(), "mem") {
			t.Fatalf("unhelpful violation message %q", v.Error())
		}
	}()
	k.Auditor().CheckAll("test")
}

// TestAuditorCollectMode: with AuditCollect the same corruption is
// recorded, counted, and survived — the soak harness depends on this.
func TestAuditorCollectMode(t *testing.T) {
	k := New(smallMachine(), core.PIso, Options{AuditCollect: true, MetricsPeriod: 100 * sim.Millisecond})
	s := k.NewSPU("u", 1)
	k.Boot()
	k.RunUntil(50 * sim.Millisecond)
	s.Charge(core.Memory, 1)
	k.Auditor().CheckAll("test")
	vs := k.Auditor().Violations()
	if len(vs) == 0 {
		t.Fatal("collect mode recorded nothing")
	}
	if vs[0].At != k.Engine().Now() {
		t.Fatalf("violation stamped at %v, now is %v", vs[0].At, k.Engine().Now())
	}
	if vs[0].Snapshot["mem.used"] == 0 && vs[0].Snapshot["mem.free"] == 0 {
		t.Fatal("violation snapshot is empty")
	}
	if got := k.Metrics().Counter(metrics.KeyInvariantViolations, metrics.NoSPU).Value(); got == 0 {
		t.Fatal("invariant.violations metric not counted")
	}
	// The limit bounds memory: hammer the check and confirm truncation.
	k.Auditor().Limit = 3
	for i := 0; i < 10; i++ {
		k.Auditor().CheckAll("test")
	}
	if n := len(k.Auditor().Violations()); n > 3 {
		t.Fatalf("collected %d violations past limit 3", n)
	}
	if k.Auditor().Truncated() == 0 {
		t.Fatal("truncation not counted")
	}
}

// TestAuditorCatchesNegativeEntitlement covers the levels check.
func TestAuditorCatchesNegativeEntitlement(t *testing.T) {
	k := New(smallMachine(), core.PIso, Options{AuditCollect: true})
	s := k.NewSPU("u", 1)
	k.Boot()
	s.SetEntitled(core.DiskBW, -0.5)
	k.Auditor().CheckAll("test")
	found := false
	for _, v := range k.Auditor().Violations() {
		if v.Check == "levels" && v.SPU == s.ID() {
			found = true
		}
	}
	if !found {
		t.Fatalf("negative entitlement not flagged: %v", k.Auditor().Violations())
	}
}
