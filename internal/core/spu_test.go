package core

import (
	"testing"
	"testing/quick"
)

func TestDefaultSPUs(t *testing.T) {
	m := NewManager()
	if m.Kernel().ID() != KernelID || m.Kernel().Name() != "kernel" {
		t.Fatal("kernel SPU misconfigured")
	}
	if m.Shared().ID() != SharedID || m.Shared().Name() != "shared" {
		t.Fatal("shared SPU misconfigured")
	}
	if len(m.Users()) != 0 {
		t.Fatal("fresh manager should have no user SPUs")
	}
}

func TestSPUIDClasses(t *testing.T) {
	if KernelID.IsUser() || SharedID.IsUser() {
		t.Fatal("default SPUs must not be user SPUs")
	}
	if !FirstUserID.IsUser() {
		t.Fatal("FirstUserID must be a user SPU")
	}
}

func TestNewSPUAssignsSequentialIDs(t *testing.T) {
	m := NewManager()
	a := m.NewSPU("a", 1, ShareIdle)
	b := m.NewSPU("b", 1, ShareIdle)
	if a.ID() != FirstUserID || b.ID() != FirstUserID+1 {
		t.Fatalf("ids = %d, %d", a.ID(), b.ID())
	}
	if m.Get(a.ID()) != a || m.Get(b.ID()) != b {
		t.Fatal("Get does not round-trip")
	}
}

func TestNewSPURejectsBadWeight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewManager().NewSPU("bad", 0, ShareIdle)
}

func TestGetPanicsOnUnknownID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewManager().Get(99)
}

func TestLevelsIdleAndPressure(t *testing.T) {
	l := Levels{Entitled: 10, Allowed: 10, Used: 4}
	if l.Idle() != 6 {
		t.Fatalf("Idle = %g", l.Idle())
	}
	if l.Pressure() != 0 {
		t.Fatalf("Pressure = %g", l.Pressure())
	}
	l.Used = 13
	if l.Idle() != 0 {
		t.Fatalf("over-used Idle = %g", l.Idle())
	}
	if l.Pressure() != 3 {
		t.Fatalf("Pressure = %g", l.Pressure())
	}
}

func TestChargeAndCanUse(t *testing.T) {
	m := NewManager()
	s := m.NewSPU("u", 1, ShareIdle)
	s.SetEntitled(Memory, 100)
	if !s.CanUse(Memory, 100) {
		t.Fatal("should be able to use full entitlement")
	}
	s.Charge(Memory, 100)
	if s.CanUse(Memory, 1) {
		t.Fatal("should be denied beyond allowed")
	}
	s.SetAllowed(Memory, 150) // a loan
	if !s.CanUse(Memory, 50) {
		t.Fatal("loan should raise the limit")
	}
	s.Charge(Memory, -100)
	if s.Used(Memory) != 0 {
		t.Fatalf("Used = %g", s.Used(Memory))
	}
}

func TestChargePanicsOnNegativeUsage(t *testing.T) {
	m := NewManager()
	s := m.NewSPU("u", 1, ShareIdle)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Charge(Memory, -1)
}

func TestSetAllowedBelowEntitledPanics(t *testing.T) {
	m := NewManager()
	s := m.NewSPU("u", 1, ShareIdle)
	s.SetEntitled(CPU, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.SetAllowed(CPU, 3)
}

func TestKernelSPUUnlimited(t *testing.T) {
	m := NewManager()
	k := m.Kernel()
	if !k.CanUse(Memory, 1e12) {
		t.Fatal("kernel SPU must have unrestricted access (§2.2)")
	}
}

func TestShareAllIgnoresLimits(t *testing.T) {
	m := NewManager()
	s := m.NewSPU("smp", 1, ShareAll)
	s.SetEntitled(Memory, 10)
	s.Charge(Memory, 10)
	if !s.CanUse(Memory, 100) {
		t.Fatal("ShareAll SPU must not be limited")
	}
}

func TestSuspendWake(t *testing.T) {
	m := NewManager()
	a := m.NewSPU("a", 1, ShareIdle)
	b := m.NewSPU("b", 1, ShareIdle)
	a.Suspend()
	act := m.ActiveUsers()
	if len(act) != 1 || act[0] != b {
		t.Fatalf("ActiveUsers = %v", act)
	}
	if m.TotalWeight() != 1 {
		t.Fatalf("TotalWeight = %g", m.TotalWeight())
	}
	a.Wake()
	if len(m.ActiveUsers()) != 2 {
		t.Fatal("wake did not restore SPU")
	}
}

func TestDivideEqualShares(t *testing.T) {
	m := NewManager()
	for i := 0; i < 4; i++ {
		m.NewSPU("u", 1, ShareIdle)
	}
	m.DivideIntegral(Memory, 1000)
	for _, s := range m.Users() {
		if s.Entitled(Memory) != 250 || s.Allowed(Memory) != 250 {
			t.Fatalf("SPU %d entitled %g allowed %g", s.ID(), s.Entitled(Memory), s.Allowed(Memory))
		}
	}
}

func TestDivideUnequalShares(t *testing.T) {
	// §2.1: project A owns a third, project B owns two thirds.
	m := NewManager()
	a := m.NewSPU("A", 1, ShareIdle)
	b := m.NewSPU("B", 2, ShareIdle)
	m.DivideIntegral(CPU, 9)
	if a.Entitled(CPU) != 3 || b.Entitled(CPU) != 6 {
		t.Fatalf("entitled = %g, %g", a.Entitled(CPU), b.Entitled(CPU))
	}
}

func TestDivideIntegralExact(t *testing.T) {
	m := NewManager()
	for i := 0; i < 3; i++ {
		m.NewSPU("u", 1, ShareIdle)
	}
	shares := m.DivideIntegral(Memory, 10)
	sum := 0
	for _, s := range shares {
		sum += s
	}
	if sum != 10 {
		t.Fatalf("integral shares sum to %d, want 10", sum)
	}
	// 10/3: shares must be 4,3,3 in some order with the extra going to
	// the earliest SPU on a tie.
	if shares[0] != 4 || shares[1] != 3 || shares[2] != 3 {
		t.Fatalf("shares = %v", shares)
	}
}

func TestDivideIntegralSkipsSuspended(t *testing.T) {
	m := NewManager()
	a := m.NewSPU("a", 1, ShareIdle)
	b := m.NewSPU("b", 1, ShareIdle)
	a.Suspend()
	m.DivideIntegral(CPU, 8)
	if b.Entitled(CPU) != 8 {
		t.Fatalf("b entitled %g, want all 8", b.Entitled(CPU))
	}
	if a.Entitled(CPU) != 0 {
		t.Fatalf("suspended a entitled %g, want 0", a.Entitled(CPU))
	}
}

// Property: integral division always sums to the total and each share is
// within one unit of the exact proportional share.
func TestPropertyDivideIntegral(t *testing.T) {
	f := func(weights []uint8, total uint16) bool {
		m := NewManager()
		var ws []float64
		for _, w := range weights {
			if w == 0 {
				continue
			}
			ws = append(ws, float64(w))
			m.NewSPU("u", float64(w), ShareIdle)
		}
		if len(ws) == 0 {
			return true
		}
		tot := int(total % 4096)
		shares := m.DivideIntegral(Memory, tot)
		sum := 0.0
		tw := 0.0
		for _, w := range ws {
			tw += w
		}
		for i, s := range shares {
			sum += float64(s)
			exact := float64(tot) * ws[i] / tw
			if float64(s) < exact-1.0-1e-9 || float64(s) > exact+1.0+1e-9 {
				return false
			}
		}
		return int(sum) == tot
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSchemePolicyMapping(t *testing.T) {
	if SMP.Policy() != ShareAll || Quo.Policy() != ShareNone || PIso.Policy() != ShareIdle {
		t.Fatal("scheme->policy mapping wrong")
	}
}

func TestStringers(t *testing.T) {
	if CPU.String() != "cpu" || Memory.String() != "memory" || DiskBW.String() != "diskbw" || NetBW.String() != "netbw" {
		t.Fatal("resource names")
	}
	if Resource(99).String() == "" {
		t.Fatal("unknown resource should still render")
	}
	if SMP.String() != "SMP" || Quo.String() != "Quo" || PIso.String() != "PIso" {
		t.Fatal("scheme names")
	}
	if ShareNone.String() != "share-none" || ShareIdle.String() != "share-idle" || ShareAll.String() != "share-all" {
		t.Fatal("policy names")
	}
	if Policy(99).String() == "" || Scheme(99).String() == "" {
		t.Fatal("unknown enum values should still render")
	}
}

func TestSetPolicyPerSPU(t *testing.T) {
	m := NewManager()
	s := m.NewSPU("u", 1, ShareIdle)
	s.SetPolicy(ShareNone)
	if s.Policy() != ShareNone {
		t.Fatal("SetPolicy did not take")
	}
}

func TestTotalUsed(t *testing.T) {
	m := NewManager()
	a := m.NewSPU("a", 1, ShareIdle)
	b := m.NewSPU("b", 1, ShareIdle)
	a.SetEntitled(Memory, 50)
	b.SetEntitled(Memory, 50)
	a.Charge(Memory, 10)
	b.Charge(Memory, 20)
	m.Shared().Charge(Memory, 5)
	if got := m.TotalUsed(Memory); got != 35 {
		t.Fatalf("TotalUsed = %g", got)
	}
}
