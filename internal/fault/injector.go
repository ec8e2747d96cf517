package fault

import (
	"fmt"
	"sort"
	"strings"

	"perfiso/internal/disk"
	"perfiso/internal/mem"
	"perfiso/internal/metrics"
	"perfiso/internal/sched"
	"perfiso/internal/sim"
	"perfiso/internal/snap"
	"perfiso/internal/trace"
)

// Machine is the set of hooks the injector drives. The kernel fills it
// in at boot; tests may wire subsystems directly.
type Machine struct {
	Sched *sched.Scheduler
	Mem   *mem.Manager
	Disks []*disk.Disk
	// Rebalance re-divides CPU homes and memory entitlements after the
	// machine shrinks or regrows (kernel.Rebalance). May be nil.
	Rebalance func()
	// Trace, when non-nil, receives a trace.Fault event per injection
	// and recovery, so tests can assert why a run degraded.
	Trace *trace.Tracer
	// Metrics, when non-nil, counts injections and recoveries.
	Metrics *metrics.Registry
}

// Stats counts injector activity.
type Stats struct {
	Injected int64 // faults applied
	Reverted int64 // transient faults healed
}

// faultKey identifies the machine resource a fault degrades, so
// overlapping faults on one resource can be tracked together.
type faultKey struct {
	kind   Kind
	target int
}

// Injector schedules a Plan's faults onto the simulation clock.
type Injector struct {
	eng *sim.Engine
	m   Machine
	rng *sim.RNG // failure-decision stream, forked per faulted disk

	// active tracks, per resource, the faults currently applied in
	// injection order. When one of several overlapping faults heals,
	// the resource is re-degraded to the most recent survivor instead
	// of snapping back to nominal — healing fault A must not silently
	// cancel fault B. MemLoss is absent: frame losses are additive and
	// each heal restores exactly the frames its fault took.
	active map[faultKey][]*Event

	Stat Stats
}

// NewInjector creates an injector and schedules every event of the plan
// on the engine. rng seeds the transient-failure decisions; fork a
// dedicated stream so fault randomness cannot perturb anything else.
func NewInjector(eng *sim.Engine, m Machine, plan *Plan, rng *sim.RNG) *Injector {
	in := &Injector{eng: eng, m: m, rng: rng, active: make(map[faultKey][]*Event)}
	if plan == nil {
		return in
	}
	for _, e := range plan.Events {
		ev := e // a stable copy: its address is the fault's identity in the active set
		if err := in.check(ev); err != nil {
			panic(err)
		}
		// removed carries state from injection to recovery (MemLoss
		// must restore exactly the frames it took).
		removed := new(int)
		eng.At(ev.At, "fault.inject", func() { in.apply(&ev, removed) })
		if ev.Duration > 0 {
			eng.At(ev.At+ev.Duration, "fault.revert", func() { in.revert(&ev, removed) })
		}
	}
	return in
}

// check validates an event against the actual machine, so a bad spec
// fails loudly at boot rather than mid-run.
func (in *Injector) check(e Event) error {
	switch e.Kind {
	case DiskSlow, DiskFail:
		if e.Target >= len(in.m.Disks) {
			return fmt.Errorf("fault: disk %d out of range (machine has %d)", e.Target, len(in.m.Disks))
		}
	case CPUSlow, CPUOffline:
		if in.m.Sched == nil || e.Target >= in.m.Sched.NumCPUs() {
			return fmt.Errorf("fault: cpu %d out of range", e.Target)
		}
	case MemLoss:
		if in.m.Mem == nil {
			return fmt.Errorf("fault: mem-loss with no memory manager")
		}
	}
	return nil
}

func (in *Injector) apply(e *Event, removed *int) {
	in.Stat.Injected++
	in.m.Metrics.Counter(metrics.KeyFaultInjected, metrics.NoSPU).Inc()
	if e.Kind == MemLoss {
		n := int(e.Severity * float64(in.m.Mem.TotalPages()))
		*removed = n
		in.m.Mem.RemoveFrames(n)
		in.rebalance()
		in.emit(*e, "inject", "%d frames lost (%.0f%%)", n, e.Severity*100)
		return
	}
	k := faultKey{e.Kind, e.Target}
	in.active[k] = append(in.active[k], e)
	in.enact(k)
	switch e.Kind {
	case DiskSlow:
		in.emit(*e, "inject", "disk%d service times x%g", e.Target, e.Severity)
	case DiskFail:
		in.emit(*e, "inject", "disk%d fails transfers with p=%g", e.Target, e.Severity)
	case CPUSlow:
		in.emit(*e, "inject", "cpu%d straggles at %gx speed", e.Target, e.Severity)
	case CPUOffline:
		in.emit(*e, "inject", "cpu%d offline, %d remain", e.Target, in.m.Sched.OnlineCPUs())
	}
}

func (in *Injector) revert(e *Event, removed *int) {
	in.Stat.Reverted++
	in.m.Metrics.Counter(metrics.KeyFaultReverted, metrics.NoSPU).Inc()
	if e.Kind == MemLoss {
		in.m.Mem.AddFrames(*removed)
		in.rebalance()
		in.emit(*e, "heal", "%d frames restored", *removed)
		return
	}
	k := faultKey{e.Kind, e.Target}
	stack := in.active[k]
	for i, a := range stack {
		if a == e {
			in.active[k] = append(stack[:i], stack[i+1:]...)
			break
		}
	}
	in.enact(k)
	switch e.Kind {
	case DiskSlow:
		in.emit(*e, "heal", "disk%d at x%g service times", e.Target, in.m.Disks[e.Target].Slow())
	case DiskFail:
		in.emit(*e, "heal", "disk%d fails transfers with p=%g", e.Target, in.m.Disks[e.Target].FailProb())
	case CPUSlow:
		in.emit(*e, "heal", "cpu%d at %gx speed", e.Target, in.m.Sched.CPUSpeed(e.Target))
	case CPUOffline:
		in.emit(*e, "heal", "cpu%d online=%v, %d available", e.Target, !in.m.Sched.Offline(e.Target), in.m.Sched.OnlineCPUs())
	}
}

// enact drives the resource to match its active-fault stack: the most
// recently injected survivor wins, and an empty stack restores nominal
// operation.
func (in *Injector) enact(k faultKey) {
	stack := in.active[k]
	var cur *Event
	if len(stack) > 0 {
		cur = stack[len(stack)-1]
	}
	switch k.kind {
	case DiskSlow:
		factor := 1.0
		if cur != nil {
			factor = cur.Severity
		}
		in.m.Disks[k.target].SetSlow(factor)
	case DiskFail:
		if cur != nil {
			in.m.Disks[k.target].SetFault(cur.Severity, in.rng.Fork())
		} else {
			in.m.Disks[k.target].SetFault(0, nil)
		}
	case CPUSlow:
		speed := 1.0
		if cur != nil {
			speed = cur.Severity
		}
		in.m.Sched.SetCPUSpeed(k.target, speed)
	case CPUOffline:
		off := cur != nil
		if in.m.Sched.Offline(k.target) != off {
			in.m.Sched.SetOffline(k.target, off)
			in.rebalance()
		}
	}
}

// Snapshot writes the injector's state for checkpoint comparison.
func (in *Injector) Snapshot(enc *snap.Encoder) {
	enc.Section("fault")
	enc.Int("injected", in.Stat.Injected)
	enc.Int("reverted", in.Stat.Reverted)
	keys := make([]faultKey, 0, len(in.active))
	for k, stack := range in.active {
		if len(stack) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kind != keys[j].kind {
			return keys[i].kind < keys[j].kind
		}
		return keys[i].target < keys[j].target
	})
	for _, k := range keys {
		specs := make([]string, len(in.active[k]))
		for i, e := range in.active[k] {
			specs[i] = e.String()
		}
		enc.Str(fmt.Sprintf("active_%s_%d", k.kind, k.target), strings.Join(specs, ","))
	}
}

func (in *Injector) rebalance() {
	if in.m.Rebalance != nil {
		in.m.Rebalance()
	}
}

func (in *Injector) emit(e Event, action, format string, args ...any) {
	in.m.Trace.Emitf(trace.Fault, e.Kind.String(), action, format, args...)
}
