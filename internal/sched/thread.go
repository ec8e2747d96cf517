// Package sched implements the CPU-time part of performance isolation
// (§3.1 of the paper): an IRIX-like priority scheduler with 30 ms time
// slices, extended with the SPU mechanisms:
//
//   - CPUs are space-partitioned among SPUs (each CPU has a home SPU);
//     fractional entitlements are served by time-partitioning the
//     leftover CPUs with a weighted rotor.
//   - A CPU schedules threads only from its home SPU, which guarantees
//     each SPU its share regardless of system load (isolation).
//   - An idle CPU whose home SPU has nothing to run may take the
//     highest-priority thread from another SPU (sharing); the loan is
//     revoked at the next 10 ms clock tick — or immediately via IPI when
//     configured — once a home thread becomes runnable and no home CPU
//     is free.
//
// Under the SMP scheme every SPU has the ShareAll policy and the home
// restriction vanishes, reproducing a single global runqueue. Under Quo
// loans never happen.
package sched

import (
	"perfiso/internal/core"
	"perfiso/internal/profile"
	"perfiso/internal/sim"
)

// Thread is one schedulable entity. The process model sets Remaining to
// the CPU time needed before the next blocking point and provides
// BurstDone, which the scheduler invokes (with the thread off-CPU) when
// Remaining reaches zero. The process model then either re-arms the
// thread and wakes it again, or leaves it blocked.
type Thread struct {
	Name string
	SPU  core.SPUID

	// Remaining is the CPU time left in the current burst.
	Remaining sim.Time
	// BurstDone runs when the burst completes. The thread is not
	// runnable when it fires.
	BurstDone func()

	// Scheduling state (owned by the Scheduler).
	runnable   bool
	running    bool
	cpu        int // CPU index while running, -1 otherwise
	pcpu       float64
	readySince sim.Time
	exited     bool
	gang       *Gang // non-nil when gang scheduled; placed only en bloc

	// Statistics.
	CPUTime sim.Time // total CPU time consumed

	// Prof, when non-nil, receives the thread's run/runnable transitions
	// (with the culprit SPU holding the CPU on waits). Nil costs nothing:
	// the scheduler only computes culprits when Prof is set.
	Prof *profile.Task
}

// Runnable reports whether the thread is on a runqueue or running.
func (t *Thread) Runnable() bool { return t.runnable || t.running }

// Running reports whether the thread currently holds a CPU.
func (t *Thread) Running() bool { return t.running }

// OnCPU returns the CPU index the thread runs on, or -1.
func (t *Thread) OnCPU() int {
	if !t.running {
		return -1
	}
	return t.cpu
}

// Priority returns the thread's current dynamic priority value; lower is
// better, and it grows as the thread consumes CPU (IRIX-style decay
// scheduling).
func (t *Thread) Priority() float64 { return t.pcpu }
