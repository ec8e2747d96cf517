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

// stepLabel names a step's profiler span. The names are constants, so
// opening a span allocates nothing. Step implementations are closed
// (run is unexported), so the switch is exhaustive.
func stepLabel(s Step) string {
	switch s.(type) {
	case Compute:
		return "step:compute"
	case Read:
		return "step:read"
	case Write:
		return "step:write"
	case Meta:
		return "step:meta"
	case Lookup:
		return "step:lookup"
	case Touch:
		return "step:touch"
	case Fork:
		return "step:fork"
	case WaitChildren:
		return "step:wait"
	case Sleep:
		return "step:sleep"
	case BarrierStep:
		return "step:barrier"
	default:
		return "step:step"
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
// runtime decision point admission control needs, since the load at
// an arrival instant is known only when its fork runs. A skipped child
// never starts, never counts as a live child, and owes no
// WaitChildren.
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
	// spare is the last released generation's buffer, reused by the
	// next one so a steady gang allocates nothing. It is nil while a
	// release runs: a waiter may re-arrive at once and complete a nested
	// generation, and the arrivals after it must not land in the buffer
	// this release clears when its loop ends.
	spare []func()
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
	b.arrived, b.spare = b.spare, nil
	for _, w := range ws {
		w()
	}
	clear(ws)
	b.spare = ws[:0]
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

// Looped is the generator, for NewGenerated, of the program head, then
// body repeated times, then tail: Seq(head, Loop(times, body...), tail)
// without a slot per step. Every step it returns is an element of the
// slices passed in, boxed once when they were built, so stepping the
// program allocates nothing.
func Looped(head []Step, times int, body []Step, tail ...Step) func(pc int) Step {
	loopEnd := len(head) + times*len(body)
	return func(pc int) Step {
		switch {
		case pc < len(head):
			return head[pc]
		case pc < loopEnd:
			return body[(pc-len(head))%len(body)]
		case pc-loopEnd < len(tail):
			return tail[pc-loopEnd]
		}
		return nil
	}
}

// Seq concatenates step slices into one program.
func Seq(parts ...[]Step) []Step {
	var out []Step
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
