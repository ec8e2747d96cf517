// Package soak is the chaos-soak harness: it derives randomized
// scenario × fault × workload cases from a seed, runs each under the
// invariant auditor and watchdog, and — when a case fails — shrinks its
// fault schedule to a minimal reproducer by delta-debugging over
// checkpoint-bounded replays.
//
// Everything is deterministic from (seed, case index): the same seed
// always generates, fails, and shrinks the same way, so a one-line
// rerun command is a complete bug report.
package soak

import (
	"fmt"
	"runtime/debug"

	"perfiso/internal/core"
	"perfiso/internal/fault"
	"perfiso/internal/invariant"
	"perfiso/internal/kernel"
	"perfiso/internal/machine"
	"perfiso/internal/scenario"
	"perfiso/internal/sim"
	"perfiso/internal/workload"
)

// Case is one generated soak scenario: a small machine, a scheme, a
// couple of SPUs running scaled-down pmake trees, and a fault plan.
type Case struct {
	Seed  uint64
	Index int

	Scheme core.Scheme
	SPUs   int
	Pmake  workload.PmakeParams
	Faults *fault.Plan

	// sabotage is the test hook proving the pipeline end to end: when
	// set, the run corrupts frame accounting 1 ms after the plan's
	// first mem-loss fault fires, so the auditor must trip and the
	// shrinker must isolate exactly that mem-loss event.
	sabotage bool
}

// Horizon bounds each soak run; cases are sized to finish well inside
// it, so hitting the horizon is itself a failure (reported as a panic).
const Horizon = 60 * sim.Second

// maxFaults bounds the generated schedule length.
const maxFaults = 4

var schemes = []core.Scheme{core.SMP, core.Quo, core.PIso}

// NewCase derives case #index of a soak sweep deterministically from
// the seed. Distinct indices give independent streams; the same
// (seed, index) is always the same case.
func NewCase(seed uint64, index int) Case {
	// Splitmix-style decorrelation so case 1 is not case 0 shifted.
	rng := sim.NewRNG(seed ^ (uint64(index)+1)*0x9e3779b97f4a7c15)
	c := Case{
		Seed:   seed,
		Index:  index,
		Scheme: schemes[rng.Intn(len(schemes))],
		SPUs:   2 + rng.Intn(2),
		Pmake: workload.PmakeParams{
			Parallel:        1 + rng.Intn(2),
			FilesPerCompile: 2 + rng.Intn(3),
			ComputePerFile:  rng.Duration(20*sim.Millisecond, 60*sim.Millisecond),
			WSSPages:        100 + rng.Intn(301),
			SrcBytes:        64 * 1024,
			ObjBytes:        32 * 1024,
		},
		Faults: randomPlan(rng),
	}
	return c
}

// randomPlan generates 1..maxFaults transient faults for the
// memory-isolation machine (4 CPUs, 2 disks), each inside the ranges
// fault.ParsePlan would accept. At most two distinct CPUs are ever
// taken offline so the machine always keeps CPUs.
func randomPlan(rng *sim.RNG) *fault.Plan {
	cfg := machine.MemoryIsolation()
	n := 1 + rng.Intn(maxFaults)
	offTargets := map[int]bool{}
	var p fault.Plan
	for i := 0; i < n; i++ {
		e := fault.Event{
			At:       rng.Duration(0, 800*sim.Millisecond),
			Duration: rng.Duration(100*sim.Millisecond, 600*sim.Millisecond),
		}
		switch fault.Kind(rng.Intn(5)) {
		case fault.DiskSlow:
			e.Kind, e.Target = fault.DiskSlow, rng.Intn(len(cfg.Disks))
			e.Severity = 1 + 4*rng.Float64()
		case fault.DiskFail:
			e.Kind, e.Target = fault.DiskFail, rng.Intn(len(cfg.Disks))
			e.Severity = 0.05 + 0.45*rng.Float64()
		case fault.CPUSlow:
			e.Kind, e.Target = fault.CPUSlow, rng.Intn(cfg.CPUs)
			e.Severity = 0.2 + 0.6*rng.Float64()
		case fault.CPUOffline:
			t := rng.Intn(cfg.CPUs)
			if !offTargets[t] && len(offTargets) >= 2 {
				// Would risk offlining too much of the machine; degrade
				// to a straggler on the same CPU instead.
				e.Kind, e.Target, e.Severity = fault.CPUSlow, t, 0.5
				break
			}
			offTargets[t] = true
			e.Kind, e.Target = fault.CPUOffline, t
		case fault.MemLoss:
			e.Kind, e.Target = fault.MemLoss, 0
			e.Severity = 0.2 + 0.2*rng.Float64()
		}
		p.Events = append(p.Events, e)
	}
	return &p
}

// Result is one soak run's outcome.
type Result struct {
	Case       Case
	End        sim.Time // completion time; 0 when the run died early
	Violations []invariant.Violation
	Trip       *invariant.TripError
	Panic      string // non-watchdog panic (with stack), "" if none
}

// Failed reports whether the run found anything wrong.
func (r *Result) Failed() bool {
	return len(r.Violations) > 0 || r.Trip != nil || r.Panic != ""
}

// FirstFailureAt returns the simulation time of the earliest failure
// signal, or 0 when none carries a time (plain panic).
func (r *Result) FirstFailureAt() sim.Time {
	var at sim.Time
	if len(r.Violations) > 0 {
		at = r.Violations[0].At
	}
	if r.Trip != nil && (at == 0 || r.Trip.At < at) {
		at = r.Trip.At
	}
	return at
}

// Summary renders the failure in one line.
func (r *Result) Summary() string {
	switch {
	case len(r.Violations) > 0:
		return r.Violations[0].Error()
	case r.Trip != nil:
		return r.Trip.Error()
	case r.Panic != "":
		return "panic: " + firstLine(r.Panic)
	default:
		return fmt.Sprintf("ok in %v", r.End)
	}
}

func firstLine(s string) string {
	for i, c := range s {
		if c == '\n' {
			return s[:i]
		}
	}
	return s
}

// Run executes the case to completion under the auditor (collect mode)
// and watchdog, recovering any panic into the result.
func Run(c Case) *Result { return run(c, 0) }

// run executes the case; until > 0 stops at that instant instead of
// running to completion — the shrinker replays candidate schedules only
// up to just past the original failure time, so shrinking a long run
// costs checkpoint-replay time, not full-run time.
func run(c Case, until sim.Time) (res *Result) {
	res = &Result{Case: c}
	defer func() {
		r := recover()
		switch v := r.(type) {
		case nil:
		case *invariant.TripError:
			res.Trip = v
		case invariant.Violation:
			// Collect mode should swallow these; a panic means fail-fast
			// was on — still a failure, just record it.
			res.Violations = append(res.Violations, v)
		default:
			res.Panic = fmt.Sprintf("%v\n%s", v, debug.Stack())
		}
	}()

	p := c.Plan()
	p.Until = until
	r := scenario.Boot(p)
	if c.sabotage {
		if at, ok := firstMemLoss(c.Faults); ok {
			k := r.Kernel
			k.Engine().Call(at+sim.Millisecond, "soak.sabotage", func() {
				k.SPUs().Shared().Charge(core.Memory, 1)
			})
		}
	}
	r.Start()
	end := r.Finish()
	if until == 0 {
		res.End = end // a bounded replay has no completion time
	}
	res.Violations = append(res.Violations, r.Kernel.Auditor().Violations()...)
	return res
}

// Plan is the case as a run description: SPUs u0.. on the
// memory-isolation machine, each running one pmake job mkI, under the
// auditor in collect mode and the fault plan.
func (c Case) Plan() scenario.Plan {
	p := scenario.Plan{
		Machine: machine.MemoryIsolation(), Scheme: c.Scheme,
		Options: kernel.Options{
			Seed:         c.Seed ^ uint64(c.Index)<<32,
			Faults:       c.Faults,
			AuditCollect: true,
			Horizon:      Horizon,
		},
	}
	for i := 0; i < c.SPUs; i++ {
		p.SPUs = append(p.SPUs, scenario.SPU{Name: fmt.Sprintf("u%d", i)})
		p.Jobs = append(p.Jobs, scenario.Job{SPU: i, Name: fmt.Sprintf("mk%d", i), Pmake: &c.Pmake})
	}
	return p
}

func firstMemLoss(p *fault.Plan) (sim.Time, bool) {
	if p == nil {
		return 0, false
	}
	for _, e := range p.Events {
		if e.Kind == fault.MemLoss {
			return e.At, true
		}
	}
	return 0, false
}

// shrinkSlack is how far past the original failure time candidate
// replays run: long enough for the same violation to re-fire (it may
// shift by a tick or two once unrelated faults are gone), short enough
// to stay cheap.
const shrinkSlack = 200 * sim.Millisecond

// Shrink delta-debugs the failing case's fault schedule down to a
// locally minimal one that still fails: no single remaining fault (or
// contiguous chunk) can be dropped. Candidates are replayed only to
// just past the original failure time — checkpoint-bounded bisection —
// except when the failure carries no timestamp (a plain panic), which
// forces full replays. It returns the minimized case and how many
// candidate replays were spent.
func Shrink(c Case, orig *Result) (Case, int) {
	if !orig.Failed() || c.Faults.Empty() {
		return c, 0
	}
	var bound sim.Time
	if at := orig.FirstFailureAt(); at > 0 {
		bound = at + shrinkSlack
	}
	fails := func(events []fault.Event) bool {
		cand := c
		cand.Faults = &fault.Plan{Events: events}
		return run(cand, bound).Failed()
	}

	events := c.Faults.Events
	tests := 0
	n := 2
	for len(events) > 1 && n <= len(events) {
		chunk := (len(events) + n - 1) / n
		reduced := false
		for lo := 0; lo < len(events); lo += chunk {
			hi := min(lo+chunk, len(events))
			cand := make([]fault.Event, 0, len(events)-(hi-lo))
			cand = append(cand, events[:lo]...)
			cand = append(cand, events[hi:]...)
			tests++
			if fails(cand) {
				events = cand
				n = max(2, n-1)
				reduced = true
				break
			}
		}
		if !reduced {
			if n == len(events) {
				break
			}
			n = min(len(events), 2*n)
		}
	}
	out := c
	out.Faults = &fault.Plan{Events: events}
	return out, tests
}

// ReproCommand renders the one-line rerun that replays exactly this
// case, minimized schedule included.
func (c Case) ReproCommand() string {
	return fmt.Sprintf("pisobench -soak -soak-seed %d -soak-case %d -soak-faults %q",
		c.Seed, c.Index, c.Faults.String())
}

// WithFaults returns the case with its fault schedule replaced — the
// -soak-faults override path.
func (c Case) WithFaults(p *fault.Plan) Case {
	c.Faults = p
	return c
}
