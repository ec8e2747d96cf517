// Package fault injects hardware degradation into the simulated
// machine, deterministically: disk service-time inflation and transient
// request failures, CPU stragglers and full CPU offline/online, and
// memory-frame loss. Every fault is an event on the simulation clock
// (never wall time), and failure decisions draw from a forked sim.RNG
// stream, so a faulted run is exactly as reproducible as a clean one.
//
// The paper evaluates isolation under *load*; this package asks the
// follow-on question — does isolation hold under *faults*? — while
// exercising the same mechanisms the paper measures: CPU offlining
// re-runs AssignHomes and re-divides entitlements on the shrunken
// machine, frame loss drives the reclaim/revocation path, and disk
// failures exercise the retry-with-backoff degradation in fs, mem and
// kernel.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"perfiso/internal/sim"
)

// Kind is the class of injected fault.
type Kind int

const (
	// DiskSlow inflates every service time of the target disk by the
	// severity factor (default 4).
	DiskSlow Kind = iota
	// DiskFail makes each transfer on the target disk fail with the
	// severity probability (default 0.3); the graceful-degradation
	// layers retry with backoff.
	DiskFail
	// CPUSlow makes the target CPU a straggler running at the severity
	// fraction of nominal speed (default 0.25).
	CPUSlow
	// CPUOffline removes the target CPU entirely; homes and
	// entitlements are re-divided over the shrunken machine.
	CPUOffline
	// MemLoss removes the severity fraction of the machine's page
	// frames (default 0.25), triggering reclaim and re-division.
	MemLoss
)

var kindNames = map[Kind]string{
	DiskSlow:   "disk-slow",
	DiskFail:   "disk-fail",
	CPUSlow:    "cpu-slow",
	CPUOffline: "cpu-off",
	MemLoss:    "mem-loss",
}

// String names the kind as it appears in fault specs.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// defaultSeverity is used when a spec omits the severity field.
func (k Kind) defaultSeverity() float64 {
	switch k {
	case DiskSlow:
		return 4
	case DiskFail:
		return 0.3
	case CPUSlow:
		return 0.25
	case MemLoss:
		return 0.25
	default:
		return 0
	}
}

// Event is one scheduled fault.
type Event struct {
	Kind   Kind
	Target int      // disk or CPU index; ignored for MemLoss
	At     sim.Time // injection time on the simulation clock
	// Duration is how long the fault lasts; 0 means it is permanent
	// (never reverted).
	Duration sim.Time
	// Severity is the kind-specific magnitude: slowdown factor
	// (DiskSlow), failure probability (DiskFail), speed fraction
	// (CPUSlow), or fraction of frames lost (MemLoss). Unused for
	// CPUOffline.
	Severity float64
}

// String renders the event in the spec syntax it parses from.
func (e Event) String() string {
	s := fmt.Sprintf("%s:%d:%s:%s", e.Kind, e.Target,
		time.Duration(e.At), time.Duration(e.Duration))
	if e.Kind != CPUOffline && e.Severity != e.Kind.defaultSeverity() {
		s += fmt.Sprintf(":%g", e.Severity)
	}
	return s
}

// Plan is an ordered fault schedule.
type Plan struct {
	Events []Event
}

// String renders the plan as a spec string ParsePlan accepts.
func (p *Plan) String() string {
	if p == nil || len(p.Events) == 0 {
		return ""
	}
	parts := make([]string, len(p.Events))
	for i, e := range p.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ",")
}

// Empty reports whether the plan schedules nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// ParsePlan parses a fault schedule spec: comma-separated events of the
// form
//
//	kind:target:at:duration[:severity]
//
// where kind is disk-slow, disk-fail, cpu-slow, cpu-off or mem-loss;
// target is the disk or CPU index (use 0 for mem-loss); at and duration
// are Go durations ("2s", "500ms"; duration 0 means permanent); and
// severity is the kind-specific magnitude, defaulting to 4 (disk-slow),
// 0.3 (disk-fail), 0.25 (cpu-slow) and 0.25 (mem-loss). Example:
//
//	disk-slow:0:2s:3s:4,cpu-off:1:1s:2s,mem-loss:0:5s:2s:0.25
func ParsePlan(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return &Plan{}, nil
	}
	var p Plan
	for _, part := range strings.Split(spec, ",") {
		e, err := parseEvent(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		p.Events = append(p.Events, e)
	}
	// Deterministic injection order regardless of spec order.
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	return &p, nil
}

func parseEvent(s string) (Event, error) {
	fields := strings.Split(s, ":")
	if len(fields) != 4 && len(fields) != 5 {
		return Event{}, fmt.Errorf("fault: %q: want kind:target:at:duration[:severity]", s)
	}
	var e Event
	found := false
	for k, name := range kindNames {
		if fields[0] == name {
			e.Kind, found = k, true
			break
		}
	}
	if !found {
		return Event{}, fmt.Errorf("fault: unknown kind %q (want disk-slow, disk-fail, cpu-slow, cpu-off or mem-loss)", fields[0])
	}
	target, err := strconv.Atoi(fields[1])
	if err != nil || target < 0 {
		return Event{}, fmt.Errorf("fault: %q: bad target %q", s, fields[1])
	}
	e.Target = target
	at, err := time.ParseDuration(fields[2])
	if err != nil || at < 0 {
		return Event{}, fmt.Errorf("fault: %q: bad injection time %q", s, fields[2])
	}
	e.At = sim.Time(at)
	dur, err := time.ParseDuration(fields[3])
	if err != nil || dur < 0 {
		return Event{}, fmt.Errorf("fault: %q: bad duration %q", s, fields[3])
	}
	e.Duration = sim.Time(dur)
	e.Severity = e.Kind.defaultSeverity()
	if len(fields) == 5 {
		sev, err := strconv.ParseFloat(fields[4], 64)
		if err != nil {
			return Event{}, fmt.Errorf("fault: %q: bad severity %q", s, fields[4])
		}
		e.Severity = sev
	}
	if err := e.validate(); err != nil {
		return Event{}, fmt.Errorf("fault: %q: %v", s, err)
	}
	if e.Kind == CPUOffline {
		// Unused, and String does not render it: a plan's String
		// parses back to the same plan.
		e.Severity = 0
	}
	return e, nil
}

func (e Event) validate() error {
	// NaN fails every comparison below, so non-finite severities are
	// refused first.
	if math.IsNaN(e.Severity) || math.IsInf(e.Severity, 0) {
		return fmt.Errorf("severity %g is not finite", e.Severity)
	}
	switch e.Kind {
	case DiskSlow:
		if e.Severity < 1 {
			return fmt.Errorf("slowdown factor %g < 1", e.Severity)
		}
	case DiskFail:
		if e.Severity <= 0 || e.Severity > 1 {
			return fmt.Errorf("failure probability %g outside (0,1]", e.Severity)
		}
	case CPUSlow:
		if e.Severity <= 0 || e.Severity >= 1 {
			return fmt.Errorf("straggler speed %g outside (0,1)", e.Severity)
		}
	case MemLoss:
		if e.Severity <= 0 || e.Severity >= 1 {
			return fmt.Errorf("frame-loss fraction %g outside (0,1)", e.Severity)
		}
	}
	return nil
}
