package kernel

import (
	"bytes"
	"strings"
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/fs"
	"perfiso/internal/machine"
	"perfiso/internal/proc"
	"perfiso/internal/profile"
	"perfiso/internal/sim"
)

// lockScenario boots a two-SPU machine whose processes hammer the
// shared root-inode mutex with long lookup holds, so at any mid-run
// instant the lock is held by one SPU with the other's lookups queued
// behind it.
func lockScenario(opts Options) *Kernel {
	k := New(smallMachine(), core.PIso, opts)
	a := k.NewSPU("a", 1)
	b := k.NewSPU("b", 1)
	k.SetAffinity(a.ID(), 0)
	k.SetAffinity(b.ID(), 1)
	k.Boot()
	k.FS().LookupHold = 30 * sim.Millisecond
	for i, id := range []core.SPUID{a.ID(), b.ID()} {
		name := []string{"md-a", "md-b"}[i]
		k.Spawn(proc.New(k, id, name, proc.Loop(10,
			proc.Lookup{}, proc.Compute{D: 5 * sim.Millisecond})))
	}
	return k
}

// The checkpoint captures locks exactly: two boots paused mid-hold with
// waiters queued serialise to identical bytes, the lock section records
// the held/queued state, and a paused-and-resumed run finishes with the
// same snapshot as one that never paused.
func TestLockCheckpointByteIdentity(t *testing.T) {
	opts := Options{InodeMutex: true}
	const at = 45 * sim.Millisecond // inside a hold, with the other SPU queued

	k1 := lockScenario(opts)
	k1.RunUntil(at)
	s1 := k1.Snapshot()
	k2 := lockScenario(opts)
	k2.RunUntil(at)
	if !bytes.Equal(s1, k2.Snapshot()) {
		t.Fatal("mid-contention checkpoints diverge")
	}
	if !strings.Contains(string(s1), "lock:fs.inode") {
		t.Fatal("snapshot missing the inode lock section")
	}
	if !strings.Contains(string(s1), "waiter0") {
		t.Fatalf("mid-contention snapshot records no queued waiter:\n%s", s1)
	}
	if !strings.Contains(string(s1), "gate:") {
		t.Fatal("snapshot missing the gate sections")
	}

	straight := lockScenario(opts)
	straight.Run()
	resumed := lockScenario(opts)
	resumed.RunUntil(at)
	resumed.Run()
	if !bytes.Equal(straight.Snapshot(), resumed.Snapshot()) {
		t.Fatal("resume across a held/queued lock is not byte-identical")
	}
}

// The lock-leak law end to end: under a shared inode mutex one SPU's
// lookups steal time from the other and the interference matrix's lock
// column says so; with per-SPU inode shards the same workload shows a
// lock row of exactly zero — not small, zero.
func TestPrivateLocksZeroInterference(t *testing.T) {
	run := func(shards int) sim.Time {
		k := lockScenario(Options{InodeMutex: true, InodeShards: shards, Profiled: true})
		k.Run()
		var theft sim.Time
		for _, th := range k.Profile().Interference() {
			if th.Resource == profile.Lock {
				theft += th.Stolen
			}
		}
		return theft
	}
	if shared := run(1); shared == 0 {
		t.Fatal("shared inode mutex produced no lock interference")
	}
	if private := run(2); private != 0 {
		t.Fatalf("private inode shards leaked %v of lock interference, want exactly zero", private)
	}
}

// The kernel's lock table sees the fs locks and the sched/mem gates
// through one registry, and its audit runs under the periodic invariant
// auditor without tripping.
func TestKernelLockTableCoverage(t *testing.T) {
	k := lockScenario(Options{InodeMutex: true, GateHold: 2 * sim.Microsecond})
	k.Run()
	tab := k.Locks()
	if err := tab.Audit(); err != nil {
		t.Fatal(err)
	}
	if n := len(tab.Locks()); n < 1+fs.DefaultPageInsertStripes {
		t.Fatalf("lock table sees %d event locks", n)
	}
	if len(tab.Gates()) < 2 {
		t.Fatalf("lock table sees %d gates", len(tab.Gates()))
	}
	rep := tab.String()
	if !strings.Contains(rep, "fs.inode") || !strings.Contains(rep, "sched.runq") {
		t.Fatalf("lock report missing rows:\n%s", rep)
	}
}

// The lock table lists a kernel's members in the order it made them:
// the root inode, its shards, the page-insert stripes, then the
// run-queue gates and the frame-pool gates. The lock report and the
// snapshot print them in that order.
func TestKernelLockTableOrder(t *testing.T) {
	k := lockScenario(Options{InodeMutex: true, InodeShards: 3, PageInsertStripes: 2})
	k.Run()
	tab := k.Locks()
	var names []string
	for _, l := range tab.Locks() {
		names = append(names, l.Name())
	}
	if got := strings.Join(names, " "); got != "fs.inode fs.inode.1 fs.inode.2 fs.pageinsert.0 fs.pageinsert.1" {
		t.Fatalf("locks %q", got)
	}
	gates := tab.Gates()
	runq := 0
	for runq < len(gates) && strings.HasPrefix(gates[runq].Name(), "sched.runq.") {
		runq++
	}
	if runq == 0 || runq == len(gates) {
		t.Fatalf("%d gates, %d of them sched.runq first", len(gates), runq)
	}
	for _, g := range gates[runq:] {
		if !strings.HasPrefix(g.Name(), "mem.framepool.") {
			t.Fatalf("gate %s after the run-queue gates", g.Name())
		}
	}
	// Lookups by SPUs 2 and 3 land on shards 2 and 0; nothing inserts a
	// page, so the report elides fs.inode.1 and the stripes.
	inOrder(t, "report", tab.String(), "fs.inode ", "fs.inode.2", gates[0].Name(), gates[runq].Name())
	inOrder(t, "snapshot", string(k.Snapshot()), "[lock:fs.inode]", "[lock:fs.inode.1]", "[lock:fs.inode.2]",
		"[lock:fs.pageinsert.0]", "[lock:fs.pageinsert.1]", "[gate:"+gates[0].Name()+"]", "[gate:"+gates[runq].Name()+"]")
}

// inOrder fails unless each of subs occurs in text after the one
// before it.
func inOrder(t *testing.T, what, text string, subs ...string) {
	t.Helper()
	at := 0
	for _, sub := range subs {
		i := strings.Index(text[at:], sub)
		if i < 0 {
			t.Fatalf("%s: %q missing or out of order:\n%s", what, sub, text)
		}
		at += i + len(sub)
	}
}

// The zero-alloc dispatch guarantee extends to the lock layer: a steady
// state with nonzero gate holds (contended accounting paths) and the
// periodic lock audits runs without allocating.
func TestKernelDispatchZeroAllocWithGates(t *testing.T) {
	k := New(machine.MemoryIsolation(), core.PIso, Options{GateHold: 2 * sim.Microsecond})
	k.NewSPU("u1", 1)
	k.NewSPU("u2", 1)
	k.Boot()
	for i, spu := range []core.SPUID{core.FirstUserID, core.FirstUserID + 1} {
		for j := 0; j < 3; j++ {
			name := []string{"a0", "a1", "a2", "b0", "b1", "b2"}[i*3+j]
			k.Spawn(proc.New(k, spu, name, proc.Loop(1_000_000,
				proc.Compute{D: 2 * sim.Millisecond},
			)))
		}
	}
	k.Engine().RunUntil(4 * sim.Second)
	eng := k.Engine()
	if avg := testing.AllocsPerRun(50, func() {
		eng.RunUntil(eng.Now() + 100*sim.Millisecond)
	}); avg != 0 {
		t.Fatalf("gated dispatch allocates %v allocs per 100 ms window, want 0", avg)
	}
}
