package proc

import (
	"perfiso/internal/fs"
	"perfiso/internal/profile"
	"perfiso/internal/sim"
)

// Step is one instruction of a process program.
type Step interface {
	run(p *Process)
}

// stepLabel names a step for its profiler span. Step implementations
// are closed (run is unexported), so the switch is exhaustive.
func stepLabel(s Step) string {
	switch s.(type) {
	case Compute:
		return "compute"
	case Read:
		return "read"
	case Write:
		return "write"
	case Meta:
		return "meta"
	case Lookup:
		return "lookup"
	case Touch:
		return "touch"
	case Fork:
		return "fork"
	case WaitChildren:
		return "wait"
	case Sleep:
		return "sleep"
	case BarrierStep:
		return "barrier"
	default:
		return "step"
	}
}

// Compute consumes D of CPU time through the scheduler, after making
// sure the working set is resident (faulting it in if the pager took
// pages away).
type Compute struct {
	D sim.Time
}

func (s Compute) run(p *Process) {
	if s.D <= 0 {
		p.next()
		return
	}
	p.burst = s.D
	p.ensureResident(p.runBurst)
}

// Read reads [Off, Off+N) of File through the buffer cache.
type Read struct {
	File *fs.File
	Off  int64
	N    int64
}

func (s Read) run(p *Process) {
	p.prof.To(profile.StateDiskWait, p.SPU)
	p.env.FS().Read(p.SPU, s.File, s.Off, s.N, p.nextFn)
}

// Write writes [Off, Off+N) of File as delayed writes.
type Write struct {
	File *fs.File
	Off  int64
	N    int64
}

func (s Write) run(p *Process) {
	// Delayed writes block only on frame allocation, never the disk.
	if p.prof != nil {
		p.prof.To(profile.StateMemWait, p.env.Memory().Culprit(p.SPU))
	}
	p.env.FS().Write(p.SPU, s.File, s.Off, s.N, p.nextFn)
}

// Meta performs a metadata rewrite on File (one synchronous sector).
type Meta struct {
	File *fs.File
}

func (s Meta) run(p *Process) {
	p.prof.To(profile.StateDiskWait, p.SPU)
	p.env.FS().MetaUpdate(p.SPU, s.File, p.nextFn)
}

// Lookup performs a pathname lookup through the root inode semaphore.
type Lookup struct{}

func (s Lookup) run(p *Process) {
	p.prof.To(profile.StateLockWait, p.SPU)
	p.env.FS().Lookup(p.SPU, p.nextFn)
}

// Touch sets the process working-set target to Pages; subsequent Compute
// steps keep that many pages resident.
type Touch struct {
	Pages int
}

func (s Touch) run(p *Process) {
	p.wssTarget = s.Pages
	p.ensureResident(p.nextFn)
}

// Fork starts a child process and continues immediately. When If is
// non-nil and returns false at fork time, the child is skipped — the
// runtime decision point admission control needs, since open-arrival
// step programs are built before the run and cannot know the load at
// each arrival instant. A skipped child never starts, never counts as
// a live child, and owes no WaitChildren.
type Fork struct {
	Child *Process
	If    func() bool
}

func (s Fork) run(p *Process) {
	if s.If != nil && !s.If() {
		p.next()
		return
	}
	s.Child.parent = p
	p.liveChildren++
	s.Child.Start()
	p.next()
}

// WaitChildren blocks until every forked child has exited.
type WaitChildren struct{}

func (s WaitChildren) run(p *Process) {
	if p.liveChildren == 0 {
		p.next()
		return
	}
	p.prof.To(profile.StateSync, p.SPU)
	p.waitingKids = true
}

// Sleep blocks the process for D without using any resources (think
// waiting on an external event).
type Sleep struct {
	D sim.Time
}

func (s Sleep) run(p *Process) {
	p.prof.To(profile.StateSleep, p.SPU)
	p.env.Engine().After(s.D, "proc.sleep", p.nextFn)
}

// Barrier synchronizes a gang of processes: each arrival blocks until
// Need processes have arrived, then all proceed. Barriers are reusable
// (they reset after releasing), which is how iterative parallel
// applications like Ocean use them.
type Barrier struct {
	Need    int
	arrived []func()
}

// NewBarrier creates a barrier for a gang of need processes.
func NewBarrier(need int) *Barrier {
	if need <= 0 {
		panic("proc: barrier with non-positive need")
	}
	return &Barrier{Need: need}
}

// Arrive registers one arrival; when the gang is complete, all waiters
// resume (in arrival order) and the barrier resets.
func (b *Barrier) Arrive(done func()) {
	b.arrived = append(b.arrived, done)
	if len(b.arrived) < b.Need {
		return
	}
	ws := b.arrived
	b.arrived = nil
	for _, w := range ws {
		w()
	}
}

// Waiting returns how many processes are blocked at the barrier.
func (b *Barrier) Waiting() int { return len(b.arrived) }

// BarrierStep makes the process arrive at B and wait for the gang.
type BarrierStep struct {
	B *Barrier
}

func (s BarrierStep) run(p *Process) {
	p.prof.To(profile.StateSync, p.SPU)
	s.B.Arrive(p.nextFn)
}

// Loop expands a body repeated Times times at program-build time.
func Loop(times int, body ...Step) []Step {
	out := make([]Step, 0, times*len(body))
	for i := 0; i < times; i++ {
		out = append(out, body...)
	}
	return out
}

// Seq concatenates step slices into one program.
func Seq(parts ...[]Step) []Step {
	var out []Step
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
