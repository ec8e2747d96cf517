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
	l := lock.New(eng, "l", lock.Mutex)
	locks := []*lock.Lock{l}
	tab := lock.NewTable()
	tab.AddLocks(func() []*lock.Lock { return locks })
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
