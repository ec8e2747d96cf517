// Package simobs is the simulator's self-observability layer: it applies
// the paper's measure-before-you-optimize discipline to the simulator's
// own execution. internal/sim exposes the raw hooks (event classes,
// domain edges, queue counters, host-time samples); this package
// classifies event names into modules and resource domains, merges the
// observers of the engines handed to Build, and renders three views:
//
//   - the event-core report: calendar-queue internals and the per-class
//     event census;
//   - host-time attribution: sampled wall-clock per module/class with
//     GC/alloc windows, exported as JSONL;
//   - the parallelism-feasibility report: per-domain event fractions and
//     cross-domain lookahead, the design input for a conservative
//     parallel core (ROADMAP item 3).
//
// Observation is opt-in per kernel (kernel.Options.SimObs, read back with
// Kernel.SimObsReport; pisosim -simobs on the command line). Everything
// here runs off the hot path: with no observer attached the engine pays
// one nil check per schedule and per dispatch (see the zero-alloc guards
// in internal/kernel).
package simobs

import (
	"sort"
	"strings"

	"perfiso/internal/sim"
)

// Classify is the kernel-aware event classifier: the prefix before the
// first '.' names the module, and the domain is per-disk for labeled
// disk events ("disk0.complete" → domain disk0), global otherwise. New
// modules classify themselves by following the "module.event" naming
// convention; anything unprefixed becomes its own module in domain
// global, so nothing is ever dropped from the census.
func Classify(name string) (module, domain string) {
	dot := strings.IndexByte(name, '.')
	if dot < 0 {
		return name, "global"
	}
	module = name[:dot]
	if rest := strings.TrimPrefix(module, "disk"); rest != module && isDigits(rest) {
		// Per-disk completion events: the disk index is the resource
		// domain, the module stays "disk" so host attribution folds all
		// disks together.
		return "disk", module
	}
	return module, "global"
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// Report is one scenario's merged self-observability snapshot.
type Report struct {
	Scenario string
	Engines  int
	// Events is the total dispatched across all engines (deterministic).
	Events uint64
	// Queue merges the final queue telemetry of every engine.
	Queue sim.QueueStats
	// Classes is the event census, merged by name, sorted by name.
	Classes []sim.ObsClassStat
	// Intra/Cross/External split every schedule by where it was issued
	// and where it lands (see sim.Obs.EdgeTotals).
	Intra, Cross, External uint64
	// Edges are the merged cross-domain causality edges.
	Edges []sim.ObsEdgeStat
	// Domains lists every domain seen, sorted.
	Domains []string
	// Samples counts wall-clock samples; Windows the GC/alloc windows.
	// Sample counts are deterministic, the nanoseconds inside are not.
	Samples uint64
	Windows []sim.ObsWindow
}

// Build merges the given engines, each observed through AttachObs, into
// one scenario report.
func Build(scenario string, engines ...*sim.Engine) *Report {
	r := &Report{Scenario: scenario, Engines: len(engines)}
	classes := map[string]*sim.ObsClassStat{}
	edges := map[[2]string]*sim.ObsEdgeStat{}
	domains := map[string]bool{}
	for _, e := range engines {
		r.Events += e.Dispatched()
		r.Queue.Merge(e.QueueStats())
		o := e.Obs()
		if o == nil {
			continue
		}
		for _, c := range o.Classes() {
			if have := classes[c.Name]; have != nil {
				have.Count += c.Count
				have.HostNS += c.HostNS
			} else {
				cc := c
				classes[c.Name] = &cc
			}
		}
		for _, ed := range o.Edges() {
			key := [2]string{ed.From, ed.To}
			if have := edges[key]; have != nil {
				have.Count += ed.Count
				have.SumLookahead += ed.SumLookahead
				if ed.MinLookahead < have.MinLookahead {
					have.MinLookahead = ed.MinLookahead
				}
			} else {
				ec := ed
				edges[key] = &ec
			}
		}
		for _, d := range o.Domains() {
			domains[d] = true
		}
		intra, cross, external := o.EdgeTotals()
		r.Intra += intra
		r.Cross += cross
		r.External += external
		r.Samples += o.Samples()
		r.Windows = append(r.Windows, o.Windows()...)
	}
	for _, c := range classes {
		r.Classes = append(r.Classes, *c)
	}
	sort.Slice(r.Classes, func(i, j int) bool { return r.Classes[i].Name < r.Classes[j].Name })
	for _, e := range edges {
		r.Edges = append(r.Edges, *e)
	}
	sort.Slice(r.Edges, func(i, j int) bool {
		if r.Edges[i].From != r.Edges[j].From {
			return r.Edges[i].From < r.Edges[j].From
		}
		return r.Edges[i].To < r.Edges[j].To
	})
	for d := range domains {
		r.Domains = append(r.Domains, d)
	}
	sort.Strings(r.Domains)
	return r
}

// CrossFraction is the fraction of in-dispatch schedules that crossed a
// resource-domain boundary — the share of event chains a conservative
// parallel simulation would have to synchronize on.
func (r *Report) CrossFraction() float64 {
	total := r.Intra + r.Cross
	if total == 0 {
		return 0
	}
	return float64(r.Cross) / float64(total)
}

// MeanLookahead is the mean scheduling horizon of cross-domain edges:
// how far in the future, on average, one domain schedules into another.
// Larger is better for conservative parallelization.
func (r *Report) MeanLookahead() sim.Time {
	var sum sim.Time
	var n uint64
	for _, e := range r.Edges {
		sum += e.SumLookahead
		n += e.Count
	}
	if n == 0 {
		return 0
	}
	return sum / sim.Time(n)
}

// MinLookahead is the tightest cross-domain edge — the bound on safe
// conservative window size.
func (r *Report) MinLookahead() sim.Time {
	var min sim.Time
	for i, e := range r.Edges {
		if i == 0 || e.MinLookahead < min {
			min = e.MinLookahead
		}
	}
	return min
}

// ModuleHost is sampled host time aggregated to one module.
type ModuleHost struct {
	Module string
	Events uint64
	HostNS int64
}

// ModuleHosts aggregates the census by module, sorted by descending
// host time then name.
func (r *Report) ModuleHosts() []ModuleHost {
	agg := map[string]*ModuleHost{}
	for _, c := range r.Classes {
		m := agg[c.Module]
		if m == nil {
			m = &ModuleHost{Module: c.Module}
			agg[c.Module] = m
		}
		m.Events += c.Count
		m.HostNS += c.HostNS
	}
	out := make([]ModuleHost, 0, len(agg))
	for _, m := range agg {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].HostNS != out[j].HostNS {
			return out[i].HostNS > out[j].HostNS
		}
		return out[i].Module < out[j].Module
	})
	return out
}

// HostNSTotal is the total sampled wall-clock attributed to classes.
func (r *Report) HostNSTotal() int64 {
	var sum int64
	for _, c := range r.Classes {
		sum += c.HostNS
	}
	return sum
}

// WindowTotals sums the GC/alloc windows.
func (r *Report) WindowTotals() sim.ObsWindow {
	var t sim.ObsWindow
	for _, w := range r.Windows {
		t.Events += w.Events
		t.HostNS += w.HostNS
		t.GCCycles += w.GCCycles
		t.AllocObjects += w.AllocObjects
		t.AllocBytes += w.AllocBytes
	}
	return t
}
