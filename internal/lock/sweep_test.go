package lock_test

import (
	"strings"
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/invariant"
	"perfiso/internal/lock"
	"perfiso/internal/sched"
	"perfiso/internal/sim"
)

// A hold whose release never fires breaks the revocability law with no
// mutation at all: the lock is unchanged since the sweep that last
// passed it, yet the first tick sweep after its release falls due must
// report it. Held locks are therefore audited at every sweep.
func TestTickSweepReportsOverdueHold(t *testing.T) {
	eng := sim.NewEngine()
	tab := lock.NewTable(eng, nil)
	l := tab.NewLock("l", lock.Mutex)
	a := invariant.New(invariant.Targets{Eng: eng, Locks: tab})
	a.Collect = true
	eng.Every(sched.TickPeriod, "kernel.tick", func() { a.CheckAll("tick") })
	eng.RunUntil(15 * sim.Millisecond)
	lock.LoseRelease(l)
	l.Acquire(core.FirstUserID, false, 12*sim.Millisecond, func() {}) // due at 27 ms
	eng.RunUntil(100 * sim.Millisecond)
	vs := a.Violations()
	if len(vs) == 0 {
		t.Fatal("no tick sweep reported the overdue hold")
	}
	if v := vs[0]; v.Check != "locks" || v.At != 30*sim.Millisecond || !strings.Contains(v.Message, "release was due") {
		t.Fatalf("first report %v, want the overdue release on the tick at 30ms", v)
	}
}

// A per-SPU gate is on its table's sweep list from the moment its first
// acquisition makes it: one made and corrupted in the same instant is
// reported by the next tick sweep.
func TestTickSweepReportsGateCorruptedAtBirth(t *testing.T) {
	eng := sim.NewEngine()
	tab := lock.NewTable(eng, nil)
	set := tab.NewGateSet("g", sim.Microsecond, false)
	a := invariant.New(invariant.Targets{Eng: eng, Locks: tab})
	a.Collect = true
	eng.Every(sched.TickPeriod, "kernel.tick", func() { a.CheckAll("tick") })
	set.Acquire(core.FirstUserID)
	eng.RunUntil(25 * sim.Millisecond) // two sweeps pass the first gate
	set.Acquire(core.FirstUserID + 1)
	set.Gates()[1].Acquisitions++
	eng.RunUntil(100 * sim.Millisecond)
	vs := a.Violations()
	if len(vs) == 0 {
		t.Fatal("no tick sweep reported the new gate's corruption")
	}
	if v := vs[0]; v.Check != "locks" || v.At != 30*sim.Millisecond || !strings.Contains(v.Message, "gate g.spu3") {
		t.Fatalf("first report %v, want the new gate on the tick at 30ms", v)
	}
}
