package invariant_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"perfiso/internal/control"
	"perfiso/internal/core"
	"perfiso/internal/disk"
	"perfiso/internal/fault"
	"perfiso/internal/invariant"
	"perfiso/internal/kernel"
	"perfiso/internal/lock"
	"perfiso/internal/proc"
	"perfiso/internal/scenario"
	"perfiso/internal/sched"
	"perfiso/internal/sim"
	"perfiso/internal/workload"
)

// TestIncrementalSweepMatchesFullSweep runs every plan of
// internal/scenario under SMP, Quo and PIso, and the slo-controller
// experiment's adaptive configuration with its fault plan, with the
// auditor collecting. A second ticker fires at every tick instant after
// the kernel's tick and runs the incremental sweep and then the full
// one on the same state: both must report the same violations, and no
// sweep of the run may report any.
func TestIncrementalSweepMatchesFullSweep(t *testing.T) {
	opts := kernel.Options{AuditCollect: true, Profiled: true}
	type named struct {
		name string
		plan scenario.Plan
	}
	var plans []named
	for _, scheme := range []core.Scheme{core.SMP, core.Quo, core.PIso} {
		plans = append(plans,
			named{"pmake8/" + scheme.String(), scenario.Pmake8(scheme, opts, "spu", 1)},
			named{"pmake8-unbalanced/" + scheme.String(), scenario.Pmake8(scheme, opts, "spu", 2)},
			named{"fig5/" + scheme.String(), scenario.Fig5(scheme, opts, "flashlite")},
			named{"fig7/" + scheme.String(), scenario.Fig7(scheme, opts, false)},
			named{"fig7-unbalanced/" + scheme.String(), scenario.Fig7(scheme, opts, true)},
			named{"table3/" + scheme.String(), scenario.Table3(scheme, opts)},
			named{"tenants/" + scheme.String(), scenario.Tenants(scheme, opts)})
	}
	// The slo-controller experiment's adaptive PIso run
	// (internal/experiment/controller.go): diurnal tenants beside 64
	// hogs, a disk-slow and two cpu-off faults, for 40 s.
	faults, err := fault.ParsePlan("disk-slow:2:14s:8s:6,cpu-off:6:9s:18s,cpu-off:7:9s:18s")
	if err != nil {
		t.Fatal(err)
	}
	slo := opts
	slo.Faults = faults
	slo.Control = control.Config{Enabled: true, Step: 0.5, Decay: 0.75, Hold: 6}
	p := scenario.TenantMachine(core.PIso, slo, workload.DiurnalTenantSet(), 64,
		workload.ComputeParams{Total: 200 * sim.Second, Chunk: 50 * sim.Millisecond, WSSPages: 50})
	p.Until = 40 * sim.Second
	plans = append(plans, named{"slo-controller/PIso-adaptive", p})

	for _, n := range plans {
		t.Run(n.name, func(t *testing.T) { sideBySide(t, n.plan) })
	}
}

func sideBySide(t *testing.T, p scenario.Plan) {
	r := scenario.Boot(p)
	r.Start()
	a := r.Kernel.Auditor()
	ticks := 0
	var tk *sim.Ticker
	tk = r.Kernel.Engine().Every(sched.TickPeriod, "test.sweeps", func() {
		n := len(a.Violations())
		a.CheckAll("tick")
		m := len(a.Violations())
		a.FullSweep("tick")
		if inc, full := verdict(a.Violations()[n:m]), verdict(a.Violations()[m:]); inc != full {
			t.Fatalf("at %s the incremental sweep reported %q, the full sweep %q",
				r.Kernel.Engine().Now(), inc, full)
		}
		ticks++
		for _, pr := range r.Procs {
			if pr.State() != proc.Exited {
				return
			}
		}
		tk.Stop()
	})
	r.Finish()
	if ticks == 0 {
		t.Fatal("the side-by-side ticker never fired")
	}
	if vs := a.Violations(); len(vs) > 0 {
		t.Fatalf("%d violations, first: %v", len(vs), vs[0])
	}
}

// verdict renders violations for comparison, without their snapshots.
func verdict(vs []invariant.Violation) string {
	var b strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&b, "%s %s spu%d %s: %s\n", v.At, v.Check, v.SPU, v.Boundary, v.Message)
	}
	return b.String()
}

const spu = core.FirstUserID

// sweepRig is a lock, a gate and a disk under a collecting auditor, the
// lock and the gate made by the auditor's lock table.
type sweepRig struct {
	eng *sim.Engine
	tab *lock.Table
	l   *lock.Lock
	g   *lock.Gate
	d   *disk.Disk
	a   *invariant.Auditor
}

func newSweepRig() *sweepRig {
	eng := sim.NewEngine()
	tab := lock.NewTable(eng, nil)
	r := &sweepRig{
		eng: eng,
		tab: tab,
		l:   tab.NewLock("l", lock.Mutex),
		g:   tab.NewGateSet("g", 10*sim.Microsecond, true).Gates()[0],
		d:   disk.New(eng, disk.HP97560(), disk.NewPIso(0), 0),
	}
	r.a = invariant.New(invariant.Targets{Eng: eng, Disks: []*disk.Disk{r.d}, Locks: tab})
	r.a.Collect = true
	return r
}

// ticking runs the auditor's tick sweep every 10 ms, as the kernel does.
func (r *sweepRig) ticking() {
	r.eng.Every(sched.TickPeriod, "kernel.tick", func() { r.a.CheckAll("tick") })
}

// exercise mutates the lock, the gate and the disk, so the next sweep
// audits all three.
func (r *sweepRig) exercise() {
	r.l.Acquire(spu, false, sim.Millisecond, func() {})
	r.g.Acquire(spu)
	r.d.Submit(&disk.Request{Kind: disk.Read, Sector: 1000, Count: 8, SPU: spu})
}

func read(sector int64, done func(*disk.Request)) *disk.Request {
	return &disk.Request{Kind: disk.Read, Sector: sector, Count: 8, SPU: spu, Done: done}
}

// A lock, a gate or a disk mutated and corrupted in the same instant is
// reported by the next tick sweep: each mutator clears the object's
// clean mark. The lock stays held past that sweep, so only Acquire
// marked it; the disk is busy, so Submit only queues the request. A
// disk corrupted inside a request's completion is reported by the first
// tick sweep after the completion.
func TestTickSweepReportsMutatedThenCorrupted(t *testing.T) {
	cases := []struct {
		name, check string
		before      func(r *sweepRig) // at 41 ms, before the 50 ms sweep
		corrupt     func(r *sweepRig, at *sim.Time)
	}{
		{"lock", "locks", nil, func(r *sweepRig, _ *sim.Time) {
			r.l.Acquire(spu, false, 20*sim.Millisecond, func() {})
			r.l.WaitTotal += sim.Millisecond
		}},
		{"gate", "locks", nil, func(r *sweepRig, _ *sim.Time) {
			r.g.Acquire(spu)
			r.g.Acquisitions++
		}},
		{"disk submit", "disk0", func(r *sweepRig) {
			r.d.SetSlow(1000) // the transfer outlasts the test
			r.d.Submit(read(5000, nil))
		}, func(r *sweepRig, _ *sim.Time) {
			r.d.Submit(read(9000, nil))
			r.d.Total.Requests++
		}},
		{"disk complete", "disk0", nil, func(r *sweepRig, at *sim.Time) {
			r.d.Submit(read(90000, func(*disk.Request) {
				*at = r.eng.Now()
				r.d.Total.Requests++
			}))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newSweepRig()
			r.ticking()
			r.exercise()
			if c.before != nil {
				r.eng.At(41*sim.Millisecond, "before", func() { c.before(r) })
			}
			r.eng.RunUntil(52 * sim.Millisecond)
			if vs := r.a.Violations(); len(vs) > 0 {
				t.Fatalf("clean rig reported %v", vs[0])
			}
			at := 55 * sim.Millisecond
			r.eng.At(at, "corrupt", func() { c.corrupt(r, &at) })
			r.eng.RunUntil(200 * sim.Millisecond)
			vs := r.a.Violations()
			if len(vs) == 0 {
				t.Fatal("no tick sweep reported the corruption")
			}
			want := (at/sched.TickPeriod + 1) * sched.TickPeriod
			if v := vs[0]; v.Check != c.check || v.Boundary != "tick" || v.At != want {
				t.Fatalf("first report %v, want a %s violation on the tick at %s", v, c.check, want)
			}
		})
	}
}

// A write from outside package lock escapes the clean mark: that is
// the writer contract the incremental sweep rests on. The tick sweeps
// do not see it, and the final sweep, which audits every lock, does.
func TestFinalSweepReportsCorruptedCleanLock(t *testing.T) {
	r := newSweepRig()
	r.ticking()
	r.exercise()
	r.eng.RunUntil(25 * sim.Millisecond)
	r.l.Acquisitions++
	r.eng.RunUntil(55 * sim.Millisecond)
	if vs := r.a.Violations(); len(vs) > 0 {
		t.Fatalf("a tick sweep audited a clean lock: %v", vs[0])
	}
	r.a.CheckAll("final")
	vs := r.a.Violations()
	if len(vs) != 1 || vs[0].Check != "locks" || vs[0].Boundary != "final" {
		t.Fatalf("final sweep reported %v, want one locks violation", vs)
	}
}

// A tick sweep over a changed lock, gate and disk allocates nothing,
// nor does changing them; nor does the sweep right after a per-SPU gate
// is made, though making it does.
func TestTickSweepAllocatesNothing(t *testing.T) {
	r := newSweepRig()
	req := read(1000, nil)
	noop := func() {}
	change := func() {
		r.l.Acquire(spu, false, 0, noop)
		r.g.Acquire(spu)
		r.d.Submit(req)
		r.eng.Run()
	}
	change()
	r.a.CheckAll("tick")
	if avg := testing.AllocsPerRun(100, func() {
		change()
		r.a.CheckAll("tick")
	}); avg != 0 {
		t.Fatalf("a tick sweep over changed objects allocates %v times", avg)
	}
	set := r.tab.NewGateSet("p", sim.Microsecond, false)
	var before, after runtime.MemStats
	for i := 0; i < 8; i++ {
		set.Acquire(spu + core.SPUID(i)) // makes the SPU's gate
		runtime.ReadMemStats(&before)
		r.a.CheckAll("tick")
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Fatalf("the tick sweep after gate %d was made allocates %d times", i, n)
		}
	}
	if vs := r.a.Violations(); len(vs) > 0 {
		t.Fatalf("clean rig reported %v", vs[0])
	}
}
