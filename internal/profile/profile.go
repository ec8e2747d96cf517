// Package profile is a simulated-time profiler. It accounts every
// simulated nanosecond of every thread to a (SPU, resource, state)
// bucket — running, runnable-but-waiting-for-CPU, page-fault stall,
// disk-queue wait, disk service, swap, retry-backoff — by observing the
// state transitions the scheduler, memory manager, file system, disk,
// and process layer already make. On the same hooks it records
// per-request spans (one span tree per process step) and tags every
// wait segment with the culprit SPU that held the contended resource,
// so it can emit an interference matrix (victim SPU x culprit SPU x
// resource -> stolen sim-time): the paper's isolation claim becomes
// directly measurable — under PIso the off-diagonal row of an isolated
// SPU is ~0, under SMP it explains the slowdown.
//
// Like trace and metrics, a nil *Profiler (and a nil *Task) is a valid
// no-op sink: every method returns immediately on nil, so instrumented
// code never branches on "is profiling on" and pays nothing when off.
//
// Accounting is exact by construction: a Task charges the closed-open
// interval since the previous transition to the *previous* state's
// bucket at every transition, so the buckets telescope and their sum
// equals finish-start to the nanosecond. Finish verifies that identity
// and records a violation if it ever breaks; the invariant auditor
// surfaces violations as a failed "profile" check.
package profile

import (
	"fmt"
	"sort"

	"perfiso/internal/core"
	"perfiso/internal/sim"
)

// State is where a thread's simulated time is going.
type State int

const (
	StateReady       State = iota // created, before the first transition
	StateRun                      // on a CPU
	StateRunnable                 // on the runqueue, waiting for a CPU
	StateMemWait                  // page-fault or reclaim stall
	StateDiskWait                 // blocked on disk I/O; split at close
	StateDiskQueue                // disk request queued behind others
	StateDiskService              // disk request being serviced
	StateBackoff                  // retry backoff after a failed transfer
	StateSwap                     // swap-in of an evicted working set
	StateSleep                    // voluntary sleep
	StateSync                     // barrier, wait-for-children
	StateLockWait                 // queued on (or holding) a kernel lock
	NumStates
)

// String names the state as it appears in folded stacks and spans.
func (s State) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateRun:
		return "run"
	case StateRunnable:
		return "runnable"
	case StateMemWait:
		return "memwait"
	case StateDiskWait:
		return "diskwait"
	case StateDiskQueue:
		return "diskqueue"
	case StateDiskService:
		return "diskservice"
	case StateBackoff:
		return "backoff"
	case StateSwap:
		return "swap"
	case StateSleep:
		return "sleep"
	case StateSync:
		return "sync"
	case StateLockWait:
		return "lockwait"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Resource classifies states by the contended resource, the middle
// frame of the folded stack and the axis of the interference matrix.
type Resource int

const (
	CPU Resource = iota
	Memory
	Disk
	// Lock is kernel-lock serialization: time a victim queued behind
	// another SPU's lock hold (§3.4's inode semaphore, generalized by
	// internal/lock). A fourth first-class column of the matrix
	// because locks leak interference even when CPU, memory, and disk
	// are all perfectly partitioned.
	Lock
	None
	NumResources
)

// String names the resource.
func (r Resource) String() string {
	switch r {
	case CPU:
		return "cpu"
	case Memory:
		return "memory"
	case Disk:
		return "disk"
	case Lock:
		return "lock"
	default:
		return "none"
	}
}

// Resource maps a state to the resource the thread was using or
// waiting for while in it.
func (s State) Resource() Resource {
	switch s {
	case StateRun, StateRunnable:
		return CPU
	case StateMemWait:
		return Memory
	case StateDiskWait, StateDiskQueue, StateDiskService, StateBackoff, StateSwap:
		return Disk
	case StateLockWait:
		return Lock
	default:
		return None
	}
}

// TaskRecord is the completed accounting for one process: its full
// response time split across the state buckets (which sum to
// Finished-Started exactly).
type TaskRecord struct {
	Proc     string
	SPU      core.SPUID
	Started  sim.Time
	Finished sim.Time
	Buckets  [NumStates]sim.Time
}

// Theft is one cell of the interference matrix: sim-time the culprit
// SPU's activity on a resource cost the victim SPU.
type Theft struct {
	Victim, Culprit core.SPUID
	Resource        Resource
	Stolen          sim.Time
}

// Total is one aggregate bucket across all finished tasks of an SPU.
type Total struct {
	SPU   core.SPUID
	State State
	Time  sim.Time
}

type aggKey struct {
	spu   core.SPUID
	state State
}

type theftKey struct {
	victim, culprit core.SPUID
	resource        Resource
}

// window describes the disk request whose completion callback is
// currently executing, so a victim's DiskWait segment closing inside it
// can be split into queue/service/backoff time (see Task.closeSegment).
type window struct {
	started, finished sim.Time
	backoff           sim.Time
	stolenBy          core.SPUID
	spanID            int64
}

// DefaultSpanCapacity bounds the span ring: the profiler keeps the most
// recent spans. Aggregates are unaffected by the cap; only the per-span
// log wraps.
const DefaultSpanCapacity = 8192

// maxViolations caps stored conservation-violation messages; a broken
// task re-fires on every audit and one repro needs the first few.
const maxViolations = 8

// Profiler accumulates buckets, spans, and the interference matrix for
// one simulated machine. A nil Profiler is a valid no-op sink.
type Profiler struct {
	eng *sim.Engine

	agg   map[aggKey]sim.Time
	theft map[theftKey]sim.Time
	tasks []TaskRecord

	ring    []Span
	next    int
	filled  bool
	dropped int64
	nextID  int64

	violations []string
	violCount  int64

	win       window
	winActive bool
}

// New creates a profiler keeping the most recent DefaultSpanCapacity
// spans.
func New(eng *sim.Engine) *Profiler {
	return &Profiler{
		eng:   eng,
		agg:   make(map[aggKey]sim.Time),
		theft: make(map[theftKey]sim.Time),
		ring:  make([]Span, DefaultSpanCapacity),
	}
}

// Begin starts accounting a new process on the SPU. Safe on nil (and
// then returns a nil Task, itself a valid no-op sink).
func (p *Profiler) Begin(proc string, spu core.SPUID) *Task {
	if p == nil {
		return nil
	}
	now := p.eng.Now()
	return &Task{p: p, proc: proc, spu: spu, started: now, since: now, culprit: spu}
}

// AddTheft charges stolen sim-time to the interference matrix. The disk
// layer calls this directly when starting a request that makes queued
// requests from other SPUs wait; CPU and memory theft flow in from
// segment closes. Self-inflicted waits (victim == culprit) are not
// theft and are dropped.
func (p *Profiler) AddTheft(victim, culprit core.SPUID, r Resource, d sim.Time) {
	if p == nil || d <= 0 || victim == culprit {
		return
	}
	p.theft[theftKey{victim, culprit, r}] += d
}

// BeginDiskWindow marks that a disk request's completion callback is
// running: any DiskWait segment that closes before EndDiskWindow waited
// on exactly this request and can be split into queue/service/backoff.
// started/finished bound the service interval, backoff is the request's
// accumulated retry backoff, stolenBy is the SPU whose requests the
// disk served while this one queued (the request's own SPU if none),
// and spanID links the victim's wait span to the request's service span
// as a Chrome-trace flow.
func (p *Profiler) BeginDiskWindow(started, finished, backoff sim.Time, stolenBy core.SPUID, spanID int64) {
	if p == nil {
		return
	}
	p.win = window{started: started, finished: finished, backoff: backoff, stolenBy: stolenBy, spanID: spanID}
	p.winActive = true
}

// EndDiskWindow closes the window opened by BeginDiskWindow.
func (p *Profiler) EndDiskWindow() {
	if p == nil {
		return
	}
	p.winActive = false
}

// allocID reserves the next span ID (IDs are dense and deterministic:
// allocation order is simulation order).
func (p *Profiler) allocID() int64 {
	p.nextID++
	return p.nextID
}

// emit stores a span in the ring, evicting the oldest when full.
func (p *Profiler) emit(s Span) {
	if p == nil {
		return
	}
	if p.filled {
		p.dropped++
	}
	p.ring[p.next] = s
	p.next++
	if p.next == len(p.ring) {
		p.next = 0
		p.filled = true
	}
}

// Spans returns the stored spans oldest-first.
func (p *Profiler) Spans() []Span {
	if p == nil {
		return nil
	}
	older, newer := p.stored()
	out := make([]Span, 0, len(older)+len(newer))
	out = append(out, older...)
	return append(out, newer...)
}

// stored returns the ring's stored spans, oldest-first, as its two runs:
// the older from the write cursor to the end (once the ring has
// wrapped), the newer from the start to the cursor.
func (p *Profiler) stored() (older, newer []Span) {
	if p == nil {
		return nil, nil
	}
	if p.filled {
		older = p.ring[p.next:]
	}
	return older, p.ring[:p.next]
}

// SpansDropped returns how many spans the ring overwrote.
func (p *Profiler) SpansDropped() int64 {
	if p == nil {
		return 0
	}
	return p.dropped
}

// Tasks returns the completed task records in finish order.
func (p *Profiler) Tasks() []TaskRecord {
	if p == nil {
		return nil
	}
	return p.tasks
}

// Totals returns the aggregate (SPU, state) buckets over all finished
// tasks, sorted by SPU then state for deterministic output.
func (p *Profiler) Totals() []Total {
	if p == nil {
		return nil
	}
	out := make([]Total, 0, len(p.agg))
	for k, v := range p.agg {
		out = append(out, Total{SPU: k.spu, State: k.state, Time: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SPU != out[j].SPU {
			return out[i].SPU < out[j].SPU
		}
		return out[i].State < out[j].State
	})
	return out
}

// Interference returns the theft matrix sorted by victim, culprit,
// resource. Off-diagonal rows for an isolated SPU should be ~0 under
// PIso; under SMP they explain the measured slowdown.
func (p *Profiler) Interference() []Theft {
	if p == nil {
		return nil
	}
	out := make([]Theft, 0, len(p.theft))
	for k, v := range p.theft {
		out = append(out, Theft{Victim: k.victim, Culprit: k.culprit, Resource: k.resource, Stolen: v})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Victim != b.Victim {
			return a.Victim < b.Victim
		}
		if a.Culprit != b.Culprit {
			return a.Culprit < b.Culprit
		}
		return a.Resource < b.Resource
	})
	return out
}

// Stolen returns total sim-time the culprit cost the victim on the
// resource, 0 if none.
func (p *Profiler) Stolen(victim, culprit core.SPUID, r Resource) sim.Time {
	if p == nil {
		return 0
	}
	return p.theft[theftKey{victim, culprit, r}]
}

// StolenFrom returns all sim-time other SPUs cost the victim on the
// resource (the victim's off-diagonal row sum for that resource).
func (p *Profiler) StolenFrom(victim core.SPUID, r Resource) sim.Time {
	if p == nil {
		return 0
	}
	var total sim.Time
	for k, v := range p.theft {
		if k.victim == victim && k.resource == r {
			total += v
		}
	}
	return total
}

// violation records a broken conservation identity (capped).
func (p *Profiler) violation(format string, args ...any) {
	p.violCount++
	if len(p.violations) < maxViolations {
		p.violations = append(p.violations, fmt.Sprintf(format, args...))
	}
}

// Violations returns how many conservation checks failed.
func (p *Profiler) Violations() int64 {
	if p == nil {
		return 0
	}
	return p.violCount
}

// AuditConservation returns an error if any finished task's buckets
// failed to sum to its response time. The invariant auditor runs this
// every tick so a broken identity fails the run at once.
func (p *Profiler) AuditConservation() error {
	if p == nil || p.violCount == 0 {
		return nil
	}
	return fmt.Errorf("profile conservation broken %d time(s); first: %s",
		p.violCount, p.violations[0])
}

// fold absorbs a finished task into the aggregates.
func (p *Profiler) fold(t *Task, finished sim.Time) {
	for s := State(0); s < NumStates; s++ {
		if t.buckets[s] != 0 {
			p.agg[aggKey{t.spu, s}] += t.buckets[s]
		}
	}
	p.tasks = append(p.tasks, TaskRecord{
		Proc: t.proc, SPU: t.spu, Started: t.started, Finished: finished, Buckets: t.buckets,
	})
}

// SPUName renders an SPU ID the way every profiler export spells it.
func SPUName(id core.SPUID) string { return fmt.Sprintf("spu%d", int(id)) }
