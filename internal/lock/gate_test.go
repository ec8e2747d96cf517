package lock

import (
	"testing"

	"perfiso/internal/profile"
	"perfiso/internal/sim"
)

// A gate never schedules events: acquisitions inside another SPU's busy
// window are recorded as contention and theft, but simulated time is
// untouched.
func TestGateBusyWindowAccounting(t *testing.T) {
	eng := sim.NewEngine()
	p := profile.New(eng)
	g := NewGate(eng, "t", 10*sim.Microsecond)
	g.SetProfile(p)
	g.Acquire(spuA) // opens a window [0, 10us)
	g.Acquire(spuB) // inside A's window: waits 10us, extends to 20us
	g.Acquire(spuC) // inside B's extension: waits 20us
	if g.Contended != 2 {
		t.Fatalf("contended = %d", g.Contended)
	}
	if g.WaitTotal != 30*sim.Microsecond {
		t.Fatalf("wait total = %v", g.WaitTotal)
	}
	if got := p.Stolen(spuB, spuA, profile.Lock); got != 10*sim.Microsecond {
		t.Fatalf("theft B<-A = %v", got)
	}
	if got := p.Stolen(spuC, spuB, profile.Lock); got != 20*sim.Microsecond {
		t.Fatalf("theft C<-B = %v", got)
	}
	if eng.Now() != 0 {
		t.Fatal("gate perturbed simulated time")
	}
	if err := g.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestGateWindowExpires(t *testing.T) {
	eng := sim.NewEngine()
	g := NewGate(eng, "t", 10*sim.Microsecond)
	g.Acquire(spuA)
	eng.After(sim.Millisecond, "later", func() { g.Acquire(spuB) })
	eng.Run()
	if g.Contended != 0 {
		t.Fatal("acquisition after the window expired counted as contended")
	}
}

// With Hold zero the gate is pure acquisition counting.
func TestGateZeroHoldPureCounting(t *testing.T) {
	eng := sim.NewEngine()
	g := NewGate(eng, "t", 0)
	for i := 0; i < 5; i++ {
		g.Acquire(spuA)
	}
	if g.Acquisitions != 5 || g.Contended != 0 || g.WaitTotal != 0 {
		t.Fatalf("acq=%d contended=%d wait=%v", g.Acquisitions, g.Contended, g.WaitTotal)
	}
	if err := g.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestGateNilSafe(t *testing.T) {
	var g *Gate
	g.Acquire(spuA) // must not panic
	var s *GateSet
	s.Acquire(spuA)
	if s.Gates() != nil {
		t.Fatal("nil set returned gates")
	}
}

// A shared gate serializes every SPU on one busy window; a private set
// gives each SPU its own, so cross-SPU lock theft is structurally
// impossible.
func TestGateSetSharedVsPrivate(t *testing.T) {
	eng := sim.NewEngine()
	p := profile.New(eng)

	shared := NewGateSet(eng, "s", 10*sim.Microsecond, true)
	shared.SetProfile(p)
	shared.Acquire(spuA)
	shared.Acquire(spuB)
	if _, contended, _ := shared.Totals(); contended != 1 {
		t.Fatalf("shared set contended = %d", contended)
	}
	if got := p.Stolen(spuB, spuA, profile.Lock); got != 10*sim.Microsecond {
		t.Fatalf("shared-set theft = %v", got)
	}

	private := NewGateSet(eng, "p", 10*sim.Microsecond, false)
	private.SetProfile(p)
	private.Acquire(spuA)
	private.Acquire(spuB)
	private.Acquire(spuA) // back-to-back: self-contends on A's own gate
	if acq, _, _ := private.Totals(); acq != 3 {
		t.Fatalf("private set acq = %d", acq)
	}
	// Self-contention is possible, cross-SPU theft is not: one SPU's
	// traffic never lands in another's busy window.
	if p.Stolen(spuA, spuB, profile.Lock)+p.Stolen(spuB, spuA, profile.Lock) != 10*sim.Microsecond {
		t.Fatal("shared-set theft changed; premise broken")
	}
	if p.StolenFrom(spuA, profile.Lock)+p.StolenFrom(spuB, profile.Lock) != 10*sim.Microsecond {
		t.Fatal("private gates produced cross-SPU theft")
	}
	if len(private.Gates()) != 2 {
		t.Fatalf("private gates = %d", len(private.Gates()))
	}
	if shared.Shared() != true || private.Shared() != false {
		t.Fatal("Shared() flag wrong")
	}
}

func TestGateAuditDetectsCorruption(t *testing.T) {
	eng := sim.NewEngine()
	g := NewGate(eng, "t", 10*sim.Microsecond)
	g.Acquire(spuA)
	if err := g.Audit(); err != nil {
		t.Fatal(err)
	}
	g.Acquisitions++
	if err := g.Audit(); err == nil {
		t.Fatal("ledger drift not detected")
	}
	g.Acquisitions--
	g.Contended = g.Acquisitions + 1
	if err := g.Audit(); err == nil {
		t.Fatal("contention above traffic not detected")
	}
}

func TestShardedRoutingAndTotals(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSharded(eng, "t", Mutex, 4)
	if s.Len() != 4 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Shard(5) != s.Locks()[1] {
		t.Fatal("key routing wrong")
	}
	if s.ForSPU(spuB) != s.Locks()[int(spuB)%4] {
		t.Fatal("SPU routing wrong")
	}
	s.Shard(0).Acquire(spuA, false, sim.Millisecond, func() {})
	s.Shard(1).Acquire(spuB, false, sim.Millisecond, func() {})
	eng.Run()
	if acq, _ := s.Totals(); acq != 2 {
		t.Fatalf("totals acq = %d", acq)
	}
}

func TestShardedCoercesZeroShards(t *testing.T) {
	eng := sim.NewEngine()
	if NewSharded(eng, "t", Mutex, 0).Len() != 1 {
		t.Fatal("zero shards should coerce to 1")
	}
}

// The table audits and reports every registered source, late-bound so
// re-striped or lazily created locks are always covered.
func TestTableLateBinding(t *testing.T) {
	eng := sim.NewEngine()
	var locks []*Lock
	tab := NewTable()
	tab.AddLocks(func() []*Lock { return locks })
	set := NewGateSet(eng, "g", sim.Microsecond, false)
	tab.AddGates(set.Gates)

	if len(tab.Locks()) != 0 || len(tab.Gates()) != 0 {
		t.Fatal("table not empty at start")
	}
	locks = append(locks, New(eng, "late", Mutex))
	set.Acquire(spuA)
	if len(tab.Locks()) != 1 || len(tab.Gates()) != 1 {
		t.Fatal("table missed late-bound members")
	}
	if err := tab.Audit(); err != nil {
		t.Fatal(err)
	}
	locks[0].grants++ // corrupt
	if err := tab.Audit(); err == nil {
		t.Fatal("table audit missed a corrupted lock")
	}
}

func TestTableStringElidesIdleLocks(t *testing.T) {
	eng := sim.NewEngine()
	busy := New(eng, "busy", Mutex)
	idle := New(eng, "idle", Mutex)
	busy.Acquire(spuA, false, sim.Millisecond, func() {})
	eng.Run()
	tab := NewTable()
	tab.AddLocks(func() []*Lock { return []*Lock{busy, idle} })
	out := tab.String()
	if !contains(out, "busy") || contains(out, "idle") {
		t.Fatalf("table report wrong:\n%s", out)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
