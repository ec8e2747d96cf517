package main

import (
	"math"
	"sort"
)

// metricDef names one metric. BENCHMARK.json at the repository root
// lists the same metrics with the same units, directions and bounds;
// the package test keeps the two in step.
type metricDef struct {
	name, unit, better string
	// bound is how far an end-to-end metric may worsen, as a share of
	// the parent's median, before a change counts as a regression.
	bound float64
	// exact marks simulated-time results that repeat exactly for a
	// seed; two runs of the same code must agree on them to the digit.
	exact bool
	// host marks host-time measurements, which vary with host noise.
	// The other metrics vary only with the input instance.
	host bool
}

// endToEnd are the timed pass's metrics: what a user of the simulator
// waits for and pays in memory, measured with tracing off.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, host: true},
	{name: "run_s", unit: "s", better: "lower", bound: 0.25, host: true},
	{name: "export_s", unit: "s", better: "lower", bound: 0.2, host: true},
	{name: "allocs", unit: "count", better: "lower", bound: 0.05},
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.15},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.1},
}

// modules are the simulator modules the engine observer bills host
// time to, by the class of the event being dispatched.
var modules = []string{"sched", "disk", "lock", "mem", "proc", "kernel", "auditor", "fs"}

// perLayer are the traced pass's metrics. Simulated-time counters come
// from the packages' exported statistics after an untraced rep; host
// times come from spans around the benchmark's own calls, from the
// engine observer, from observer toggles, and from layer probes.
var perLayer = func() []metricDef {
	exact := func(name, unit, better string) metricDef {
		return metricDef{name: name, unit: unit, better: better, exact: true}
	}
	host := func(name, unit string) metricDef {
		return metricDef{name: name, unit: unit, better: "lower", host: true}
	}
	defs := []metricDef{
		exact("sim.events", "count", "lower"),
		host("sim.ns_per_event", "ns"),
		exact("sim.queue_collision_rate", "ratio", "lower"),
		exact("sched.dispatches", "count", "lower"),
		exact("sched.preemptions", "count", "lower"),
		exact("sched.loans", "count", "higher"),
		exact("sched.revocations", "count", "lower"),
		exact("sched.util", "ratio", "higher"),
		exact("mem.allocations", "count", "lower"),
		exact("mem.evictions", "count", "lower"),
		exact("mem.dirty_writes", "count", "lower"),
		exact("mem.denials", "count", "lower"),
		exact("mem.wait_queue_len", "count", "lower"),
		exact("disk.requests", "count", "lower"),
		exact("disk.util", "ratio", "higher"),
		exact("disk.queue_len", "count", "lower"),
		exact("disk.wait_ms", "ms", "lower"),
		exact("disk.service_ms", "ms", "lower"),
		exact("disk.failures", "count", "lower"),
		exact("fs.hit_ratio", "ratio", "higher"),
		exact("fs.read_reqs", "count", "lower"),
		exact("fs.write_reqs", "count", "lower"),
		exact("fs.retries", "count", "lower"),
		exact("lock.acquisitions", "count", "lower"),
		exact("lock.wait_ms", "ms", "lower"),
		exact("latency.requests", "count", "higher"),
		exact("latency.censored", "count", "lower"),
		exact("control.ticks", "count", "lower"),
		exact("control.retunes", "count", "lower"),
		exact("control.shed", "count", "lower"),
		exact("control.trips", "count", "lower"),
		exact("invariant.checks", "count", "higher"),
		exact("invariant.violations", "count", "lower"),
		exact("profile.theft_ms", "ms", "lower"),
		exact("fault.injected", "count", "lower"),
		exact("result.victim_resp_s", "s", "lower"),
		exact("result.tenant_p99_ms", "ms", "lower"),
		exact("result.slo_held", "count", "higher"),
		host("kernel.new_ms", "ms"),
		host("kernel.boot_ms", "ms"),
		host("workload.build_ms", "ms"),
		host("metrics.export_ms", "ms"),
		host("profile.export_ms", "ms"),
		host("latency.export_ms", "ms"),
		host("control.export_ms", "ms"),
	}
	for _, m := range modules {
		defs = append(defs, host(m+".host_ms", "ms"))
	}
	return append(defs,
		host("run.self_ms", "ms"),
		host("profile.cost_pct", "%"),
		host("invariant.cost_pct", "%"),
		host("metrics.cost_pct", "%"),
		host("observers.cost_pct", "%"),
		host("trace_overhead_pct", "%"),
		host("disk.pick_ns_q64", "ns"),
		host("disk.pick_ns_q1024", "ns"),
		host("mem.reclaim_ns", "ns"),
		host("sim.event_ns", "ns"),
	)
}()

// summary is a metric's median and quartiles over its samples.
type summary struct {
	median, q1, q3 float64
	n              int
}

// summarize computes the median and the quartiles of one or more
// values the way Python's statistics.quantiles(values, n=4) does (the
// exclusive method), so the spreads this program reports match a
// reader's own check.
func summarize(values []float64) summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	out := summary{n: n, median: s[n/2]}
	if n%2 == 0 {
		out.median = (s[n/2-1] + s[n/2]) / 2
	}
	if n == 1 {
		out.q1, out.q3 = s[0], s[0]
		return out
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	out.q1, out.q3 = q(1), q(3)
	return out
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 { return ratio(s.q3-s.q1, math.Abs(s.median)) }
