// Package proc implements the process model: a process is an
// event-driven state machine owned by the simulated kernel, executing a
// program of steps — CPU bursts, file reads/writes, metadata updates,
// pathname lookups, working-set growth, fork/wait, and barriers.
//
// A process's CPU demand flows through the scheduler (so it is subject to
// SPU space partitioning, lending and revocation), its working set
// through the memory manager (so it faults and thrashes when its SPU's
// share is too small), and its file operations through the file system
// and disks (so it queues behind other SPUs' disk traffic).
package proc

import (
	"fmt"

	"perfiso/internal/core"
	"perfiso/internal/fs"
	"perfiso/internal/mem"
	"perfiso/internal/profile"
	"perfiso/internal/sched"
	"perfiso/internal/sim"
)

// Env is the slice of the kernel a process interacts with. The kernel
// package implements it; tests may substitute lighter rigs.
type Env interface {
	Engine() *sim.Engine
	Scheduler() *sched.Scheduler
	Memory() *mem.Manager
	FS() *fs.FileSystem
	// SwapIn reads pages back from swap space on behalf of spu, calling
	// done when they are in memory (the frames themselves must already
	// have been allocated by the caller).
	SwapIn(spu core.SPUID, pages int, done func())
	// Profile returns the kernel's simulated-time profiler, or nil when
	// profiling is off. Processes register themselves with it at Start —
	// through the Env so forked children are profiled too.
	Profile() *profile.Profiler
}

// State is a process's lifecycle state.
type State int

const (
	// Created means Start has not run yet.
	Created State = iota
	// Running means the process is executing its program (on CPU, in a
	// queue, or blocked on IO/memory/children/barriers).
	Running
	// Exited means the program completed and resources were released.
	Exited
)

// Process is one simulated process.
type Process struct {
	Name string
	SPU  core.SPUID

	env   Env
	steps []Step
	gen   func(pc int) Step // generated program; nil for a steps slice
	pc    int

	// Pre-allocated continuations: steps run once per iteration for the
	// process's whole life, so handing services a fresh method-value or
	// closure each time would put an allocation on the kernel's
	// steady-state dispatch path. nextFn is the universal "advance the
	// program" continuation; runBurst starts the CPU burst staged in
	// burst (Compute's resident-set callback).
	nextFn   func()
	runBurst func()
	burst    sim.Time

	thread *sched.Thread
	state  State
	prof   *profile.Task

	// Working set: the target Compute keeps resident, and the pages and
	// fault-in state, allocated at the first fault (a process that never
	// faults, such as a request handler, carries only the pointer).
	wssTarget int
	pager     *pager

	// Process tree.
	parent       *Process
	liveChildren int
	waitingKids  bool

	// OnExit, if set, runs when the process finishes.
	OnExit func(*Process)

	// Statistics.
	Started  sim.Time
	Finished sim.Time
	Faults   int64 // page faults taken (first-touch and swap-in)
	SwapIns  int64 // faults that required reading from swap
}

// New creates a process ready to Start.
func New(env Env, spu core.SPUID, name string, steps []Step) *Process {
	p := &Process{Name: name, SPU: spu, env: env, steps: steps}
	p.thread = &sched.Thread{Name: name, SPU: spu}
	p.nextFn = p.advance
	p.runBurst = func() {
		p.thread.Remaining = p.burst
		p.thread.BurstDone = p.nextFn
		p.env.Scheduler().Wake(p.thread)
	}
	return p
}

// NewGenerated creates a process whose program is produced as it runs:
// gen(pc) returns step pc when the process reaches it, or nil once the
// program is over. A long program — an open service's dispatcher, one
// Sleep and one Fork per arrival — then holds only what gen needs to
// build the next step, not every step at once.
func NewGenerated(env Env, spu core.SPUID, name string, gen func(pc int) Step) *Process {
	p := New(env, spu, name, nil)
	p.gen = gen
	return p
}

// State returns the process state.
func (p *Process) State() State { return p.state }

// ResponseTime returns Finished-Started; it panics if the process has
// not exited (reading a response time early is a harness bug).
func (p *Process) ResponseTime() sim.Time {
	if p.state != Exited {
		panic(fmt.Sprintf("proc: response time of %q read before exit", p.Name))
	}
	return p.Finished - p.Started
}

// pager is a process's resident set and fault-in state. The fault-in
// is a continuation bound once, pageIn, with its operands in fields, so
// faulting a page allocates nothing but the frame.
type pager struct {
	set     mem.WorkingSet
	swapped int // pages evicted since last use; re-touch swaps them in

	// The fault-in in progress: pages to fault, how many of them come
	// back from swap (the last needSwap), how many arrived so far, and
	// what runs once they are all resident.
	missing, needSwap, got int
	done                   func()
	pageIn                 func(*mem.Page)
}

// Resident returns the current resident set size in pages.
func (p *Process) Resident() int {
	if p.pager == nil {
		return 0
	}
	return p.pager.set.Len()
}

// Thread exposes the process's scheduler thread (for stats).
func (p *Process) Thread() *sched.Thread { return p.thread }

// Start begins execution.
func (p *Process) Start() {
	if p.state != Created {
		panic("proc: Start on a non-fresh process " + p.Name)
	}
	p.state = Running
	p.Started = p.env.Engine().Now()
	p.prof = p.env.Profile().Begin(p.Name, p.SPU)
	p.thread.Prof = p.prof
	p.advance()
}

// PageEvicted implements mem.Owner: the pager took one of our pages.
// After exit the set is detached, so a page reclaimed while exit frees
// the others is no longer ours to count.
func (p *Process) PageEvicted(pg *mem.Page) {
	if p.pager.set.Unbind(pg) {
		p.pager.swapped++
	}
}

// advance executes program steps until one blocks.
func (p *Process) advance() {
	if p.state != Running {
		return
	}
	var step Step
	if p.gen != nil {
		step = p.gen(p.pc)
	} else if p.pc < len(p.steps) {
		step = p.steps[p.pc]
	}
	if step == nil {
		p.exit()
		return
	}
	p.pc++
	if p.prof != nil {
		p.prof.BeginStep(stepLabel(step))
	}
	step.run(p)
}

// next is the continuation most steps pass to asynchronous services.
func (p *Process) next() { p.advance() }

// exit releases resources and notifies the parent.
func (p *Process) exit() {
	p.state = Exited
	p.Finished = p.env.Engine().Now()
	p.prof.Finish()
	// Detach the resident set before freeing: each Free may wake memory
	// waiters whose allocations reclaim other pages of this very set.
	if p.pager != nil {
		for _, pg := range p.pager.set.Detach() {
			p.env.Memory().Release(pg)
		}
	}
	p.env.Scheduler().Exit(p.thread)
	if p.parent != nil {
		p.parent.childExited()
	}
	if p.OnExit != nil {
		p.OnExit(p)
	}
}

func (p *Process) childExited() {
	p.liveChildren--
	if p.liveChildren < 0 {
		panic("proc: child count underflow in " + p.Name)
	}
	if p.waitingKids && p.liveChildren == 0 {
		p.waitingKids = false
		p.advance()
	}
}

// ensureResident faults the working set up to wssTarget pages, then
// calls done. Missing pages that were swapped out cost swap-in reads;
// brand-new pages are zero-filled (no disk). Allocation itself may block
// under the SPU's memory limit, which is where Quo's thrashing comes
// from.
func (p *Process) ensureResident(done func()) {
	missing := p.wssTarget - p.Resident()
	if missing <= 0 {
		if p.pager != nil {
			p.env.Memory().TouchSet(&p.pager.set)
		}
		done()
		return
	}
	if p.pager == nil {
		p.pager = &pager{}
		p.pager.pageIn = p.pageIn
	}
	f := p.pager
	if p.prof != nil {
		// The stall is charged to memory; blame whoever is squatting on
		// frames beyond their entitlement right now (a snapshot — the
		// picture when the wait began, which is when blame was incurred).
		p.prof.To(profile.StateMemWait, p.env.Memory().Culprit(p.SPU))
	}
	f.missing, f.needSwap, f.got, f.done = missing, min(missing, f.swapped), 0, done
	p.faultNext()
}

// faultNext requests the next missing page, or, once every page has
// arrived, touches the set and swaps the evicted ones back in. Nothing
// reads the fault-in fields after done is handed on: done may start the
// next step, and that step's fault-in reuses them.
func (p *Process) faultNext() {
	f := p.pager
	if f.got < f.missing {
		p.env.Memory().Request(p.SPU, mem.Anon, p, f.pageIn)
		return
	}
	needSwap, done := f.needSwap, f.done
	f.swapped -= needSwap
	p.SwapIns += int64(needSwap)
	p.env.Memory().TouchSet(&f.set)
	if needSwap > 0 {
		p.prof.To(profile.StateSwap, p.SPU)
		p.env.SwapIn(p.SPU, needSwap, done)
	} else {
		done()
	}
}

// pageIn binds one faulted page and requests the next. First-touch pages
// are dirty (the app wrote them); pages re-read from swap arrive clean —
// their contents already live on disk, so a later eviction is free.
// Without this a thrashing SPU pays a write-back *and* a swap-in per
// fault and degradation turns into collapse.
func (p *Process) pageIn(pg *mem.Page) {
	f := p.pager
	p.env.Memory().SetDirty(pg, f.got < f.missing-f.needSwap)
	f.set.Bind(pg)
	p.Faults++
	f.got++
	p.faultNext()
}
