// Package simobs is the simulator's self-observability layer: it applies
// the paper's measure-before-you-optimize discipline to the simulator's
// own execution. internal/sim exposes the raw hooks (event classes,
// queue counters, host-time samples); this package reads one observed
// engine into a Report and renders two views:
//
//   - the event-core report: calendar-queue internals and the per-class
//     event census;
//   - host-time attribution: sampled wall-clock per module/class with
//     GC/alloc windows, exported as JSONL.
//
// Observation is opt-in per kernel (kernel.Options.SimObs, read back with
// Kernel.SimObsReport; pisosim -simobs on the command line). Everything
// here runs off the hot path: with no observer attached the engine pays
// one nil check per schedule and per dispatch (see the zero-alloc guards
// in internal/kernel).
package simobs

import (
	"sort"

	"perfiso/internal/sim"
)

// Report is one scenario's self-observability snapshot.
type Report struct {
	Scenario string
	// Events is the total dispatched (deterministic).
	Events uint64
	// Queue is the engine's final queue telemetry.
	Queue sim.QueueStats
	// Classes is the event census, sorted by name.
	Classes []sim.ObsClassStat
	// Samples counts wall-clock samples; Windows the GC/alloc windows.
	// Sample counts are deterministic, the nanoseconds inside are not.
	Samples uint64
	Windows []sim.ObsWindow
}

// Build reads an engine observed through AttachObs into one scenario
// report.
func Build(scenario string, e *sim.Engine) *Report {
	o := e.Obs()
	return &Report{
		Scenario: scenario,
		Events:   e.Dispatched(),
		Queue:    e.QueueStats(),
		Classes:  o.Classes(),
		Samples:  o.Samples(),
		Windows:  o.Windows(),
	}
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
