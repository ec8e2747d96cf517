// Package invariant makes the paper's guarantees self-checking. The
// simulator's claim is an *invariant* — an isolated SPU receives its
// entitled CPU/memory/disk share within a slice of granularity, loans
// are revocable within a tick, and the conservation laws (CPU time,
// page frames, disk sectors, lock time) those guarantees rest on always
// hold. The Auditor re-proves them at every clock tick and at every
// loan/revoke/reclaim boundary, so a bug (or an injected fault driving
// the kernel somewhere unvalidated) surfaces at the instant the books
// stop balancing instead of as a mysteriously wrong experiment table.
//
// What each sweep audits:
//
//   - Every sweep checks the clock, the SPU levels, the scheduler laws
//     (sched.AuditInvariants), the O(#SPUs) memory checks
//     (mem.AuditInvariants), profile conservation and the controller's
//     laws in full.
//   - The tick sweep (any CheckAll boundary but "final") audits only
//     the disks, locks and gates that changed since they last passed
//     (disk.AuditChanged, lock.Table.AuditChanged), plus every held
//     lock: a hold's release can fall overdue with no mutation at all,
//     and no other law of theirs depends on the clock. Each mutator
//     clears its object's clean mark (for locks and gates, puts it on
//     its table's list); an object that passes is marked clean, one
//     that fails stays unmarked and is reported again at the next
//     sweep.
//   - The "final" sweep at the end of Kernel.Run audits every disk,
//     lock and gate, and runs the exhaustive mem.AuditDeep.
//
// The writer contract: a clean mark is sound only because the state a
// disk's, lock's or gate's laws read is written by its own package
// (internal/disk, internal/lock), in the mutators that clear the mark.
// Code elsewhere reads Disk.Total, Disk.PerSPU and the lock and gate
// counters but never writes them, nor a queued disk.Request. A write
// from outside those packages would go unseen until the final sweep.
//
// The subsystem-local checks live with the state they check —
// sched.AuditInvariants, mem.AuditInvariants, disk.Audit, lock.Lock.Audit
// — so they can see unexported fields; this package orchestrates them,
// adds the cross-cutting checks (clock monotonicity, SPU resource-level
// sanity), and turns failures into structured Violations wired into
// metrics and the trace.
package invariant

import (
	"fmt"
	"sort"
	"strings"

	"perfiso/internal/control"
	"perfiso/internal/core"
	"perfiso/internal/disk"
	"perfiso/internal/lock"
	"perfiso/internal/mem"
	"perfiso/internal/metrics"
	"perfiso/internal/profile"
	"perfiso/internal/sched"
	"perfiso/internal/sim"
	"perfiso/internal/trace"
)

// Violation is one failed invariant check, with enough context to
// reproduce and diagnose it: when, which check, which SPU (NoSPU for
// machine-wide checks), and a snapshot of the relevant metrics at the
// moment of failure.
type Violation struct {
	At       sim.Time
	Check    string // subsystem or check name: "sched", "mem", "disk0", "clock", "levels"
	SPU      core.SPUID
	Boundary string // what triggered the check: "tick", "loan", "revoke", ...
	Message  string
	Snapshot map[string]float64
}

// NoSPU marks a violation that is not attributable to one SPU.
const NoSPU = core.SPUID(-1)

// Error renders the violation as one line, with the snapshot keys in
// sorted order so output is deterministic.
func (v Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "invariant violation at %s [%s", v.At, v.Check)
	if v.SPU != NoSPU {
		fmt.Fprintf(&b, " spu%d", v.SPU)
	}
	fmt.Fprintf(&b, " on %s]: %s", v.Boundary, v.Message)
	if len(v.Snapshot) > 0 {
		keys := make([]string, 0, len(v.Snapshot))
		for k := range v.Snapshot {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString(" {")
		for i, k := range keys {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%s=%g", k, v.Snapshot[k])
		}
		b.WriteString("}")
	}
	return b.String()
}

// Targets is the machine the auditor checks. Sched and Mem are
// required; Disks may be empty and SPUs nil (levels checks skipped).
type Targets struct {
	Eng   *sim.Engine
	SPUs  *core.Manager
	Sched *sched.Scheduler
	Mem   *mem.Manager
	Disks []*disk.Disk
	// Profile, when non-nil, adds the profiler's conservation audit:
	// every finished task's buckets must sum exactly to its response
	// time (integer nanoseconds, no epsilon).
	Profile *profile.Profiler
	// Locks, when non-nil, adds the kernel-lock conservation laws
	// (internal/lock): holders+waiters accounting, reader/writer
	// exclusion, liveness of queued waiters, revocability of loaned
	// hold time, and per-SPU ledger conservation.
	Locks *lock.Table
	// Control, when non-nil, adds the SLO controller's actuation laws:
	// share conservation under retune, minimum-guarantee floors, and
	// the bounded per-tick movement cap.
	Control *control.Controller
}

// Auditor runs invariant checks against a machine. In fail-fast mode
// (the default) the first violation panics, so experiments and tests
// crash at the moment of inconsistency; in collect mode (the soak
// harness) violations accumulate up to a cap and the run continues.
type Auditor struct {
	t Targets

	// Collect accumulates violations instead of panicking.
	Collect bool
	// Limit caps collected violations (0 means DefaultViolationLimit);
	// past it, checks still count but stop recording.
	Limit int
	// Metrics, when non-nil, counts checks and violations.
	Metrics *metrics.Registry
	// Trace, when non-nil, records each violation as an Audit event.
	Trace *trace.Tracer

	lastNow sim.Time
	checks  int64
	// checksCtr is Metrics' invariant.checks counter, looked up at the
	// first check rather than at every one (so Metrics is set before
	// the first check).
	checksCtr  *metrics.Counter
	violations []Violation
	truncated  int64 // violations dropped past Limit
}

// DefaultViolationLimit bounds collect-mode memory use: a broken
// invariant re-fires on every subsequent check, and one repro needs the
// first few instances, not millions.
const DefaultViolationLimit = 64

// New creates an auditor for the machine.
func New(t Targets) *Auditor {
	return &Auditor{t: t}
}

// Checks returns how many check passes have run.
func (a *Auditor) Checks() int64 { return a.checks }

// Violations returns the collected violations (empty in fail-fast mode,
// which panics on the first one).
func (a *Auditor) Violations() []Violation { return a.violations }

// Truncated returns how many violations were dropped after Limit.
func (a *Auditor) Truncated() int64 { return a.truncated }

// CheckAll runs every invariant: clock monotonicity, SPU resource
// levels, scheduler conservation and isolation, memory-frame
// conservation and limits, disk and lock accounting, profile
// conservation and the controller's laws. boundary names the trigger
// ("tick", "final", or a sharing-boundary reason). The "final" sweep
// audits every disk, lock and gate; any other sweep audits those that
// changed since they last passed, and every held lock.
func (a *Auditor) CheckAll(boundary string) {
	a.sweep(boundary, boundary == "final")
}

// sweep is CheckAll; full audits every disk, lock and gate, not only
// those that changed since they last passed.
func (a *Auditor) sweep(boundary string, full bool) {
	a.begin()
	a.checkClock(boundary)
	a.checkLevels(boundary)
	a.checkSched(boundary)
	a.checkMem(boundary)
	for i, d := range a.t.Disks {
		var err error
		if full {
			err = d.Audit()
		} else {
			err = d.AuditChanged()
		}
		if err != nil {
			a.report(fmt.Sprintf("disk%d", i), NoSPU, boundary, err)
		}
	}
	if a.t.Profile != nil {
		if err := a.t.Profile.AuditConservation(); err != nil {
			a.report("profile", NoSPU, boundary, err)
		}
	}
	a.checkLocks(boundary, full)
	a.checkControl(boundary)
}

// checkControl verifies the SLO controller's actuation laws hold after
// every tick: a retune redistributes shares, it never changes their
// sum (conservation — Σ share = Σ weight over active users); no SPU's
// share falls below its Floor×weight minimum guarantee; and the total
// share moved by the last tick respects the per-SPU movement bound, so
// the controller can never slam the machine in one step.
func (a *Auditor) checkControl(boundary string) {
	c := a.t.Control
	if c == nil || a.t.SPUs == nil {
		return
	}
	const eps = 1e-9
	var shares, weights, maxMove float64
	for _, u := range a.t.SPUs.ActiveUsers() {
		shares += u.Share()
		weights += u.Weight()
		maxMove += control.MaxTickFrac * u.Weight()
		if floor := control.Floor * u.Weight(); u.Share() < floor-eps {
			a.report("control", u.ID(), boundary,
				fmt.Errorf("share %g below minimum-guarantee floor %g (weight %g)",
					u.Share(), floor, u.Weight()))
		}
	}
	if d := shares - weights; d > eps || d < -eps {
		a.report("control", NoSPU, boundary,
			fmt.Errorf("retune broke share conservation: Σshare %g != Σweight %g", shares, weights))
	}
	if moved := c.LastTickDelta(); moved > maxMove+eps {
		a.report("control", NoSPU, boundary,
			fmt.Errorf("tick moved %g share, beyond the %g actuation bound", moved, maxMove))
	}
}

// checkLocks runs the registered locks' and gates' conservation laws
// (see lock.Lock.Audit and lock.Gate.Audit): on every one when full,
// otherwise on those that changed since they last passed and on every
// held lock (lock.Table.AuditChanged).
func (a *Auditor) checkLocks(boundary string, full bool) {
	if a.t.Locks == nil {
		return
	}
	var err error
	if full {
		err = a.t.Locks.Audit()
	} else {
		err = a.t.Locks.AuditChanged()
	}
	if err != nil {
		a.report("locks", NoSPU, boundary, err)
	}
}

// CheckSched runs only the cheap scheduler-scope checks (plus clock and
// levels). The scheduler's boundary hook calls this on every loan and
// revocation, where a full O(pages) memory sweep would be unaffordable.
func (a *Auditor) CheckSched(boundary string) {
	a.begin()
	a.checkClock(boundary)
	a.checkLevels(boundary)
	a.checkSched(boundary)
}

// CheckMem runs only the memory-scope checks (plus clock and levels).
// The memory manager's boundary hook calls this at loan revocations,
// policy ticks, and fault-driven frame changes.
func (a *Auditor) CheckMem(boundary string) {
	a.begin()
	a.checkClock(boundary)
	a.checkLevels(boundary)
	a.checkMem(boundary)
}

func (a *Auditor) begin() {
	a.checks++
	if a.checksCtr == nil {
		a.checksCtr = a.Metrics.Counter(metrics.KeyInvariantChecks, metrics.NoSPU)
	}
	a.checksCtr.Inc()
}

// checkClock verifies the event clock never runs backwards across
// checks (the engine panics on within-run reversal; this catches a
// snapshot/restore or harness bug re-entering an old time).
func (a *Auditor) checkClock(boundary string) {
	now := a.t.Eng.Now()
	if now < a.lastNow {
		a.report("clock", NoSPU, boundary,
			fmt.Errorf("clock ran backwards: %s after %s", now, a.lastNow))
	}
	a.lastNow = now
}

// checkLevels verifies every SPU's resource levels are sane: usage and
// entitlement never negative, and the allowed level never below the
// entitlement (an SPU can always use what it is entitled to, §2.3).
func (a *Auditor) checkLevels(boundary string) {
	if a.t.SPUs == nil {
		return
	}
	const eps = 1e-9
	for _, u := range a.t.SPUs.All() {
		for r := core.Resource(0); r < core.NumResources; r++ {
			ent, alw, used := u.Entitled(r), u.Allowed(r), u.Used(r)
			switch {
			case ent < -eps:
				a.report("levels", u.ID(), boundary,
					fmt.Errorf("%s entitlement is negative: %g", r, ent))
			case used < -eps:
				a.report("levels", u.ID(), boundary,
					fmt.Errorf("%s usage is negative: %g", r, used))
			case alw < ent-eps:
				a.report("levels", u.ID(), boundary,
					fmt.Errorf("%s allowed %g below entitlement %g", r, alw, ent))
			}
		}
	}
}

func (a *Auditor) checkSched(boundary string) {
	if a.t.Sched == nil {
		return
	}
	if err := a.t.Sched.AuditInvariants(); err != nil {
		a.report("sched", NoSPU, boundary, err)
	}
}

func (a *Auditor) checkMem(boundary string) {
	if a.t.Mem == nil {
		return
	}
	// Ticks and sharing boundaries get the O(#SPUs) incremental check;
	// the final sweep pays for the exhaustive O(pages) scan that proves
	// the incremental counters never drifted.
	err := a.t.Mem.AuditInvariants()
	if boundary == "final" {
		err = a.t.Mem.AuditDeep()
	}
	if err != nil {
		a.report("mem", NoSPU, boundary, err)
	}
}

// report turns a failed check into a Violation: counted, traced, and
// either panicking (fail-fast) or collected (soak).
func (a *Auditor) report(check string, spu core.SPUID, boundary string, err error) {
	v := Violation{
		At:       a.t.Eng.Now(),
		Check:    check,
		SPU:      spu,
		Boundary: boundary,
		Message:  err.Error(),
		Snapshot: a.snapshot(),
	}
	a.Metrics.Counter(metrics.KeyInvariantViolations, metrics.NoSPU).Inc()
	a.Trace.Emit(trace.Audit, check, "violation", v.Message)
	if !a.Collect {
		panic(v)
	}
	limit := a.Limit
	if limit <= 0 {
		limit = DefaultViolationLimit
	}
	if len(a.violations) >= limit {
		a.truncated++
		return
	}
	a.violations = append(a.violations, v)
}

// snapshot captures the headline machine metrics at violation time, so
// a violation report stands alone without re-running the scenario.
func (a *Auditor) snapshot() map[string]float64 {
	s := make(map[string]float64)
	if m := a.t.Mem; m != nil {
		s["mem.used"] = float64(m.UsedPages())
		s["mem.free"] = float64(m.FreePages())
		s["mem.waiters"] = float64(m.Waiters())
	}
	if sc := a.t.Sched; sc != nil {
		s["sched.idle"] = float64(sc.IdleCPUs())
		s["sched.runq"] = float64(sc.RunqueueLen())
		s["sched.loans"] = float64(sc.Stat.Loans)
		s["sched.revocations"] = float64(sc.Stat.Revocations)
	}
	for i, d := range a.t.Disks {
		s[fmt.Sprintf("disk%d.queue", i)] = float64(d.QueueLen())
	}
	return s
}
