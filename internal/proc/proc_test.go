package proc

import (
	"slices"
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/disk"
	"perfiso/internal/fs"
	"perfiso/internal/lock"
	"perfiso/internal/mem"
	"perfiso/internal/profile"
	"perfiso/internal/sched"
	"perfiso/internal/sim"
)

// testEnv is a minimal kernel for driving processes in tests.
type testEnv struct {
	eng     *sim.Engine
	spus    *core.Manager
	sch     *sched.Scheduler
	mm      *mem.Manager
	filesys *fs.FileSystem
	d       *disk.Disk
	al      *fs.Allocator
	prof    *profile.Profiler
}

func (e *testEnv) Engine() *sim.Engine         { return e.eng }
func (e *testEnv) Scheduler() *sched.Scheduler { return e.sch }
func (e *testEnv) Memory() *mem.Manager        { return e.mm }
func (e *testEnv) FS() *fs.FileSystem          { return e.filesys }
func (e *testEnv) Profile() *profile.Profiler  { return e.prof }
func (e *testEnv) SwapIn(spu core.SPUID, pages int, done func()) {
	// One clustered read from the tail of the disk per 4 pages.
	reqs := (pages + 3) / 4
	left := reqs
	base := e.d.Params().TotalSectors() - 100000
	for i := 0; i < reqs; i++ {
		e.d.Submit(&disk.Request{
			Kind: disk.Read, Sector: base + int64(i*32), Count: 32, SPU: spu,
			Done: func(*disk.Request) {
				left--
				if left == 0 {
					done()
				}
			},
		})
	}
}

// newEnv builds a 2-CPU machine with nSPU user SPUs and pages of memory.
func newEnv(nSPU int, policy core.Policy, cpus, pages int) (*testEnv, []*core.SPU) {
	eng := sim.NewEngine()
	spus := core.NewManager()
	var us []*core.SPU
	for i := 0; i < nSPU; i++ {
		us = append(us, spus.NewSPU("u", 1, policy))
	}
	sch := sched.New(eng, spus, cpus, sched.Options{})
	sch.AssignHomes()
	mm := mem.NewManager(eng, spus, pages, 0)
	mm.DivideAmongSPUs()
	filesys := fs.New(eng, mm, lock.NewTable(eng, nil), fs.SemRW, 1, 0)
	d := disk.New(eng, disk.HP97560(), disk.NewPIso(0), 0)
	env := &testEnv{eng: eng, spus: spus, sch: sch, mm: mm, filesys: filesys, d: d,
		al: fs.NewAllocator(d, sim.NewRNG(7))}
	mm.SetPageout(func(p *mem.Page, done func(ok bool)) {
		if !filesys.WritebackEvicted(p, func() { done(true) }) {
			// Anonymous page: write to swap.
			d.Submit(&disk.Request{Kind: disk.Write,
				Sector: d.Params().TotalSectors() - 200000, Count: mem.SectorsPerPage,
				SPU: core.SharedID, Done: func(*disk.Request) { done(true) }})
		}
	})
	return env, us
}

// run pumps scheduler ticks and the engine until the horizon.
func run(env *testEnv, horizon sim.Time) {
	n := int(horizon / sched.TickPeriod)
	for i := 1; i <= n; i++ {
		env.eng.At(sim.Time(i)*sched.TickPeriod, "tick", env.sch.Tick)
	}
	env.eng.RunUntil(horizon)
}

func TestComputeOnlyProcess(t *testing.T) {
	env, us := newEnv(1, core.ShareIdle, 2, 1000)
	p := New(env, us[0].ID(), "job", []Step{Compute{D: 100 * sim.Millisecond}})
	p.Start()
	run(env, sim.Second)
	if p.State() != Exited {
		t.Fatal("process never exited")
	}
	if p.ResponseTime() != 100*sim.Millisecond {
		t.Fatalf("response = %v", p.ResponseTime())
	}
}

func TestResponseTimeBeforeExitPanics(t *testing.T) {
	env, us := newEnv(1, core.ShareIdle, 2, 1000)
	p := New(env, us[0].ID(), "job", []Step{Compute{D: sim.Second}})
	p.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.ResponseTime()
}

func TestProcessBlocksDuringIO(t *testing.T) {
	env, us := newEnv(1, core.ShareIdle, 1, 1000)
	f := env.al.NewFile("f", 64*1024, fs.Contiguous, 0)
	p := New(env, us[0].ID(), "reader", []Step{
		Read{File: f, Off: 0, N: 64 * 1024},
		Compute{D: 10 * sim.Millisecond},
	})
	p.Start()
	run(env, sim.Second)
	if p.State() != Exited {
		t.Fatal("never exited")
	}
	// Response must exceed pure compute: the read cost disk time.
	if p.ResponseTime() <= 10*sim.Millisecond {
		t.Fatalf("response %v too small; disk IO not accounted", p.ResponseTime())
	}
}

func TestForkAndWaitChildren(t *testing.T) {
	env, us := newEnv(1, core.ShareIdle, 4, 1000)
	var childDone, parentDone sim.Time
	c1 := New(env, us[0].ID(), "c1", []Step{Compute{D: 50 * sim.Millisecond}})
	c1.OnExit = func(*Process) { childDone = env.eng.Now() }
	c2 := New(env, us[0].ID(), "c2", []Step{Compute{D: 80 * sim.Millisecond}})
	parent := New(env, us[0].ID(), "parent", []Step{
		Fork{Child: c1},
		Fork{Child: c2},
		WaitChildren{},
	})
	parent.OnExit = func(*Process) { parentDone = env.eng.Now() }
	parent.Start()
	run(env, sim.Second)
	if parentDone == 0 || childDone == 0 {
		t.Fatal("processes did not finish")
	}
	if parentDone < 80*sim.Millisecond {
		t.Fatalf("parent exited at %v, before its slower child", parentDone)
	}
}

func TestWaitWithNoChildrenPassesThrough(t *testing.T) {
	env, us := newEnv(1, core.ShareIdle, 1, 1000)
	p := New(env, us[0].ID(), "p", []Step{WaitChildren{}})
	p.Start()
	run(env, 100*sim.Millisecond)
	if p.State() != Exited {
		t.Fatal("WaitChildren with no children should not block")
	}
}

func TestTouchGrowsWorkingSet(t *testing.T) {
	env, us := newEnv(1, core.ShareIdle, 1, 1000)
	p := New(env, us[0].ID(), "t", []Step{
		Touch{Pages: 50},
		Compute{D: sim.Millisecond},
	})
	p.Start()
	run(env, sim.Second)
	if p.Faults != 50 {
		t.Fatalf("faults = %d, want 50 first-touch faults", p.Faults)
	}
	if p.State() != Exited {
		t.Fatal("never exited")
	}
}

func TestExitFreesMemory(t *testing.T) {
	env, us := newEnv(1, core.ShareIdle, 1, 1000)
	p := New(env, us[0].ID(), "t", []Step{Touch{Pages: 40}})
	p.Start()
	run(env, sim.Second)
	if got := us[0].Used(core.Memory); got != 0 {
		t.Fatalf("SPU still charged %g pages after exit", got)
	}
	if env.mm.UsedPages() != 0 {
		t.Fatalf("%d pages leaked", env.mm.UsedPages())
	}
}

func TestThrashingUnderTightMemoryLimit(t *testing.T) {
	// Working set 80 pages, quota 40: every compute step refaults.
	env, us := newEnv(2, core.ShareNone, 2, 80) // 40 pages per SPU
	p := New(env, us[0].ID(), "thrash", Seq(
		[]Step{Touch{Pages: 60}},
		Loop(5, Compute{D: sim.Millisecond}),
	))
	p.Start()
	run(env, 10*sim.Second)
	if p.State() != Exited {
		t.Fatalf("never exited (faults=%d, resident=%d)", p.Faults, p.Resident())
	}
	if p.SwapIns == 0 {
		t.Fatal("no swap-ins despite working set exceeding the quota")
	}
	if p.Faults <= 60 {
		t.Fatalf("faults = %d, want refaulting beyond the first 60", p.Faults)
	}
}

func TestAmpleMemoryNoThrash(t *testing.T) {
	env, us := newEnv(1, core.ShareIdle, 1, 1000)
	p := New(env, us[0].ID(), "fits", Seq(
		[]Step{Touch{Pages: 60}},
		Loop(5, Compute{D: sim.Millisecond}),
	))
	p.Start()
	run(env, sim.Second)
	if p.Faults != 60 || p.SwapIns != 0 {
		t.Fatalf("faults=%d swapins=%d; ample memory should not refault", p.Faults, p.SwapIns)
	}
}

func TestBarrierGang(t *testing.T) {
	env, us := newEnv(1, core.ShareIdle, 2, 1000)
	b := NewBarrier(2)
	var d1, d2 sim.Time
	// p1 computes 10ms per phase, p2 30ms: the barrier couples them to
	// p2's pace.
	p1 := New(env, us[0].ID(), "p1", Seq(
		Loop(3, Compute{D: 10 * sim.Millisecond}, BarrierStep{B: b}),
	))
	p1.OnExit = func(*Process) { d1 = env.eng.Now() }
	p2 := New(env, us[0].ID(), "p2", Seq(
		Loop(3, Compute{D: 30 * sim.Millisecond}, BarrierStep{B: b}),
	))
	p2.OnExit = func(*Process) { d2 = env.eng.Now() }
	p1.Start()
	p2.Start()
	run(env, sim.Second)
	if d1 != d2 {
		t.Fatalf("gang members finished apart: %v vs %v", d1, d2)
	}
	if d1 != 90*sim.Millisecond {
		t.Fatalf("gang finished at %v, want 90ms (3 phases x 30ms)", d1)
	}
}

func TestBarrierReset(t *testing.T) {
	b := NewBarrier(2)
	calls := 0
	b.Arrive(func() { calls++ })
	if b.Waiting() != 1 {
		t.Fatalf("Waiting = %d", b.Waiting())
	}
	b.Arrive(func() { calls++ })
	if calls != 2 || b.Waiting() != 0 {
		t.Fatalf("calls=%d waiting=%d", calls, b.Waiting())
	}
	// Reusable: a second round works the same.
	b.Arrive(func() { calls++ })
	b.Arrive(func() { calls++ })
	if calls != 4 {
		t.Fatalf("calls=%d after second round", calls)
	}
}

// TestBarrierNestedRelease re-arrives from inside a release: a and b
// complete a generation, both re-arrive at once and complete the next
// one before the first release loop ends, and a re-arrives again. That
// third arrival must still be waiting afterwards, and every waiter must
// run once, in arrival order, however the arrival buffers are reused.
func TestBarrierNestedRelease(t *testing.T) {
	b := NewBarrier(2)
	var order []string
	arrive := func(name string, then func()) {
		b.Arrive(func() {
			order = append(order, name)
			if then != nil {
				then()
			}
		})
	}
	for round := 0; round < 2; round++ {
		order = order[:0]
		arrive("a", func() { arrive("a2", func() { arrive("a3", nil) }) })
		arrive("b", func() { arrive("b2", nil) })
		if b.Waiting() != 1 {
			t.Fatalf("round %d: Waiting = %d after the nested release, want a3", round, b.Waiting())
		}
		arrive("c", nil)
		if want := []string{"a", "b", "a2", "b2", "a3", "c"}; !slices.Equal(order, want) {
			t.Fatalf("round %d: release order %v, want %v", round, order, want)
		}
		if b.Waiting() != 0 {
			t.Fatalf("round %d: Waiting = %d", round, b.Waiting())
		}
	}
}

// TestBarrierSteadyGenerationAllocatesNothing pins the arrival buffers'
// reuse: once two generations have run, a gang's arrivals and release
// allocate nothing.
func TestBarrierSteadyGenerationAllocatesNothing(t *testing.T) {
	b := NewBarrier(4)
	woken := 0
	wake := func() { woken++ }
	generation := func() {
		for i := 0; i < b.Need; i++ {
			b.Arrive(wake)
		}
	}
	generation()
	generation()
	if allocs := testing.AllocsPerRun(100, generation); allocs != 0 {
		t.Fatalf("a steady barrier generation allocates %.1f objects", allocs)
	}
	if woken != 4*(2+101) {
		t.Fatalf("woken %d times", woken)
	}
}

func TestSleepStep(t *testing.T) {
	env, us := newEnv(1, core.ShareIdle, 1, 100)
	p := New(env, us[0].ID(), "s", []Step{Sleep{D: 70 * sim.Millisecond}})
	p.Start()
	run(env, sim.Second)
	if p.ResponseTime() != 70*sim.Millisecond {
		t.Fatalf("response = %v", p.ResponseTime())
	}
}

func TestLoopAndSeqHelpers(t *testing.T) {
	steps := Loop(3, Compute{D: 1}, Lookup{})
	if len(steps) != 6 {
		t.Fatalf("Loop produced %d steps", len(steps))
	}
	all := Seq(steps, []Step{WaitChildren{}})
	if len(all) != 7 {
		t.Fatalf("Seq produced %d steps", len(all))
	}
}

// Looped generates exactly the expanded program Seq(head, Loop(...),
// tail), then nil, with or without a head, a tail or any iterations.
func TestLoopedMatchesExpandedProgram(t *testing.T) {
	head := []Step{Touch{Pages: 3}, Lookup{}}
	body := []Step{Compute{D: 2}, Sleep{D: 5}}
	tail := []Step{Compute{D: 1}}
	for _, c := range []struct {
		head, tail []Step
		times      int
	}{{head, tail, 4}, {nil, nil, 3}, {head, nil, 0}, {nil, tail, 1}} {
		want := Seq(c.head, Loop(c.times, body...), c.tail)
		gen := Looped(c.head, c.times, body, c.tail...)
		for pc := 0; pc <= len(want)+1; pc++ {
			var w Step
			if pc < len(want) {
				w = want[pc]
			}
			if got := gen(pc); got != w {
				t.Fatalf("head %d, %d times, tail %d: step %d is %#v, want %#v",
					len(c.head), c.times, len(c.tail), pc, got, w)
			}
		}
	}
}

func TestMetaAndLookupSteps(t *testing.T) {
	env, us := newEnv(1, core.ShareIdle, 1, 1000)
	f := env.al.NewFile("f", 4096, fs.Contiguous, 0)
	p := New(env, us[0].ID(), "m", []Step{Lookup{}, Meta{File: f}})
	p.Start()
	run(env, sim.Second)
	if p.State() != Exited {
		t.Fatal("never exited")
	}
	if env.filesys.Stat.MetaWrites != 1 || env.filesys.Stat.Lookups != 1 {
		t.Fatalf("meta=%d lookups=%d", env.filesys.Stat.MetaWrites, env.filesys.Stat.Lookups)
	}
}

func TestDoubleStartPanics(t *testing.T) {
	env, us := newEnv(1, core.ShareIdle, 1, 100)
	p := New(env, us[0].ID(), "p", []Step{Sleep{D: sim.Second}})
	p.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Start()
}

func TestComputeZeroDurationSkips(t *testing.T) {
	env, us := newEnv(1, core.ShareIdle, 1, 100)
	p := New(env, us[0].ID(), "z", []Step{Compute{D: 0}})
	p.Start()
	if p.State() != Exited {
		t.Fatal("zero compute should complete synchronously")
	}
}

// A generated program runs exactly like the same steps in a slice:
// gen is asked for each step once, in order, when the process reaches
// it, and the process exits at the first nil.
func TestGeneratedProgramMatchesSteps(t *testing.T) {
	program := func(env *testEnv, spu core.SPUID, tag string) []Step {
		var steps []Step
		for i, d := range []sim.Time{30, 10, 50} {
			child := New(env, spu, tag+"-child", []Step{Compute{D: d * sim.Millisecond}})
			steps = append(steps, Sleep{D: sim.Time(i+1) * 5 * sim.Millisecond}, Fork{Child: child})
		}
		return append(steps, WaitChildren{})
	}
	finish := func(generated bool) (sim.Time, []int) {
		env, us := newEnv(1, core.ShareIdle, 2, 1000)
		steps := program(env, us[0].ID(), "p")
		var asked []int
		var p *Process
		if generated {
			p = NewGenerated(env, us[0].ID(), "p", func(pc int) Step {
				asked = append(asked, pc)
				if pc < len(steps) {
					return steps[pc]
				}
				return nil
			})
		} else {
			p = New(env, us[0].ID(), "p", steps)
		}
		p.Start()
		run(env, sim.Second)
		if p.State() != Exited {
			t.Fatalf("generated=%v: never exited", generated)
		}
		return p.ResponseTime(), asked
	}
	want, _ := finish(false)
	got, asked := finish(true)
	if got != want {
		t.Fatalf("generated program took %v, the same steps in a slice %v", got, want)
	}
	for pc, a := range asked {
		if a != pc {
			t.Fatalf("generator asked for steps %v, want 0..7 once each in order", asked)
		}
	}
	if len(asked) != 8 {
		t.Fatalf("generator asked %d times, want 7 steps and the end", len(asked))
	}
}
