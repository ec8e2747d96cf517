// Package metrics is the kernel observability layer: a per-SPU registry
// of counters, gauges, latency distributions, and time series sampled on
// the simulation clock. The paper's core evidence is per-SPU resource
// timelines — CPU usage, resident pages, disk bandwidth over time
// (Figures 3-8) — and this package is what lets any run produce them as
// a machine-readable artifact instead of an end-of-run summary table.
//
// The registry follows the same contract as internal/trace: a nil
// *Registry is valid and free. Registration methods on a nil registry
// return nil handles, and every handle method is a no-op on nil, so
// instrumented code never branches on "are metrics on" and the hot
// dispatch path pays nothing when collection is off (there is a
// benchmark guard for this in internal/sched).
//
// Four metric kinds cover the kernel's needs:
//
//   - Counter: a monotonic event count (loans granted, pages reclaimed).
//     Push-style: the instrumented site calls Add/Inc.
//   - Gauge: an instantaneous value read lazily at export time (free
//     pages, mean disk wait). Pull-style: registered with a closure.
//   - Distribution: observations kept exactly up to ExactCap for exact
//     quantiles (revocation latency p99), spilling into a bounded
//     log-bucketed histogram beyond it.
//   - Series: a closure sampled at a fixed period on the simulation
//     clock, producing the paper's figure-style per-SPU timelines.
//
// Exporters live in export.go: a Chrome trace-event writer (open any
// run in Perfetto / chrome://tracing, one track per SPU), a JSONL
// writer, and a stats.Timeline/stats.Table renderer for terminal use.
package metrics

import (
	"math"

	"perfiso/internal/core"
	"perfiso/internal/latency"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
)

// NoSPU labels machine-wide metrics that are not attributed to one SPU.
const NoSPU core.SPUID = -1

// DefaultPeriod is the series sample period when the caller passes 0:
// 100 ms, matching the kernel's memory-policy tick and the resolution of
// the paper's timeline figures.
const DefaultPeriod = 100 * sim.Millisecond

// Canonical metric names. The kernel pre-registers these at boot so
// every export carries the same key set; tests pin the list.
const (
	// Per-SPU series, sampled each period.
	KeyCPUUsed     = "cpu.used"     // CPUs currently occupied
	KeyCPUTime     = "cpu.time"     // cumulative CPU seconds consumed
	KeyMemResident = "mem.resident" // resident page frames
	KeyMemLoaned   = "mem.loaned"   // frames allowed above the entitlement
	KeyDiskQueue   = "disk.queue"   // requests queued across all disks
	KeyDiskSectors = "disk.sectors" // cumulative sectors transferred

	// Scheduler counters and the revocation-latency distribution.
	KeySchedLoans         = "sched.loans"
	KeySchedRevocations   = "sched.revocations"
	KeySchedRevokeLatency = "sched.revoke_latency_s"

	// Memory-manager counters.
	KeyMemReclaims       = "mem.reclaims"
	KeyMemDirtyWrites    = "mem.dirty_writes"
	KeyMemPageoutRetries = "mem.pageout_retries"
	KeyMemBackoffNS      = "mem.backoff_ns"

	// File-system and kernel retry counters.
	KeyFSRetries     = "fs.retries"
	KeyFSBackoffNS   = "fs.backoff_ns"
	KeySwapRetries   = "kernel.swap_retries"
	KeySwapBackoffNS = "kernel.swap_backoff_ns"

	// Fault-injector counters.
	KeyFaultInjected = "fault.injected"
	KeyFaultReverted = "fault.reverted"

	// Invariant-auditor counters (see internal/invariant).
	KeyInvariantChecks     = "invariant.checks"
	KeyInvariantViolations = "invariant.violations"

	// SLO-controller counters (see internal/control).
	KeyControlRetunes   = "control.retunes"   // ticks that moved at least one share
	KeyControlBoosts    = "control.boosts"    // per-SPU share increases granted
	KeyControlReleases  = "control.releases"  // per-SPU share give-backs/donations
	KeyControlShed      = "control.shed"      // per-SPU admission-refused requests
	KeyControlBreaker   = "control.breaker"   // circuit-breaker trips (per disk heals not counted)
	KeyControlFailovers = "control.failovers" // requests rerouted to a fallback disk
	KeyControlClamped   = "control.clamped"   // retries clamped to the slow lane after budget exhaustion

	// Machine-wide gauges, read at export time.
	KeyMemFree         = "mem.free"
	KeyDiskWaitMean    = "disk.wait_mean_s"
	KeyDiskServiceMean = "disk.service_mean_s"
)

// Keys lists every canonical metric name, in declaration order. New
// instrumentation must add its key here so the registered-keys test
// keeps the namespace collision-free.
var Keys = []string{
	KeyCPUUsed, KeyCPUTime, KeyMemResident, KeyMemLoaned,
	KeyDiskQueue, KeyDiskSectors,
	KeySchedLoans, KeySchedRevocations, KeySchedRevokeLatency,
	KeyMemReclaims, KeyMemDirtyWrites, KeyMemPageoutRetries, KeyMemBackoffNS,
	KeyFSRetries, KeyFSBackoffNS, KeySwapRetries, KeySwapBackoffNS,
	KeyFaultInjected, KeyFaultReverted,
	KeyInvariantChecks, KeyInvariantViolations,
	KeyControlRetunes, KeyControlBoosts, KeyControlReleases, KeyControlShed,
	KeyControlBreaker, KeyControlFailovers, KeyControlClamped,
	KeyMemFree, KeyDiskWaitMean, KeyDiskServiceMean,
}

// Counter is a monotonic per-SPU event count. A nil Counter is a valid
// no-op sink.
type Counter struct {
	Name string
	SPU  core.SPUID
	v    int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Safe (and free) on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v += n
}

// AddTime adds a duration in nanoseconds — the unit backoff-time
// counters accumulate.
func (c *Counter) AddTime(t sim.Time) { c.Add(int64(t)) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is an instantaneous value read lazily through a closure at
// export time.
type Gauge struct {
	Name string
	SPU  core.SPUID
	fn   func() float64
}

// Value evaluates the gauge (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil || g.fn == nil {
		return 0
	}
	return g.fn()
}

// ExactCap is the number of observations a Distribution keeps exactly.
// Up to the cap, every value is retained and quantiles are exact — the
// historical behaviour, byte-identical in every export. Past the cap
// the distribution spills into a log-bucketed latency.Histogram whose
// memory is fixed, so a long soak cannot grow a distribution without
// bound; quantiles then carry the histogram's ≤1/128 relative error.
const ExactCap = 4096

// DistScale converts distribution units (seconds, for every current
// registrant) to the histogram's integer domain: nanosecond fixed
// point. Values below 1/DistScale collapse to bucket zero.
const DistScale = 1e9

// Distribution records a stream of observations for quantile queries:
// exact up to ExactCap, histogram-bucketed beyond. A nil Distribution
// is a valid no-op sink.
type Distribution struct {
	Name string
	SPU  core.SPUID
	vs   []float64
	h    *latency.Histogram // non-nil once the cap was exceeded
	n    int
	sum  float64
	min  float64
	max  float64
}

// Observe records one value. Safe on nil. Values must be non-negative
// for bucketed quantiles to be meaningful (the histogram clamps
// negatives to zero); every current registrant records durations.
func (d *Distribution) Observe(v float64) {
	if d == nil {
		return
	}
	d.n++
	d.sum += v
	if d.n == 1 || v > d.max {
		d.max = v
	}
	if d.n == 1 || v < d.min {
		d.min = v
	}
	if d.h == nil {
		if len(d.vs) < ExactCap {
			d.vs = append(d.vs, v)
			return
		}
		// Cap crossed: spill the exact values into the bounded histogram
		// and release them.
		d.h = latency.New()
		for _, u := range d.vs {
			d.h.Record(int64(math.Round(u * DistScale)))
		}
		d.vs = nil
	}
	d.h.Record(int64(math.Round(v * DistScale)))
}

// ObserveTime records a duration in seconds.
func (d *Distribution) ObserveTime(t sim.Time) { d.Observe(t.Seconds()) }

// N returns the number of observations.
func (d *Distribution) N() int {
	if d == nil {
		return 0
	}
	return d.n
}

// Exact reports whether every observation is still held exactly (the
// distribution never exceeded ExactCap).
func (d *Distribution) Exact() bool { return d == nil || d.h == nil }

// Quantile returns the q-quantile (0..1) of the observations, 0 when
// empty or nil. Exact below ExactCap; bucketed (≤1/128 relative error,
// extremes exact) above.
func (d *Distribution) Quantile(q float64) float64 {
	if d == nil || d.n == 0 {
		return 0
	}
	if d.h == nil {
		return stats.Quantile(d.vs, q)
	}
	if q <= 0 {
		return d.min
	}
	if q >= 1 {
		return d.max
	}
	return float64(d.h.Quantile(q)) / DistScale
}

// Values returns the raw observations in arrival order, or nil once the
// distribution exceeded ExactCap and dropped them (check Exact). The
// slice is shared with the distribution; callers must not mutate it.
func (d *Distribution) Values() []float64 {
	if d == nil {
		return nil
	}
	return d.vs
}

// Hist returns the spill histogram (nanosecond fixed point), or nil
// while the distribution is still exact.
func (d *Distribution) Hist() *latency.Histogram {
	if d == nil {
		return nil
	}
	return d.h
}

// Mean returns the arithmetic mean of the observations. Always exact:
// the running sum accumulates in arrival order, matching what summing
// the retained values used to produce.
func (d *Distribution) Mean() float64 {
	if d == nil || d.n == 0 {
		return 0
	}
	return d.sum / float64(d.n)
}

// Series is a per-SPU time series: a closure sampled on the simulation
// clock each registry sample tick.
type Series struct {
	Name string
	SPU  core.SPUID
	fn   func() float64
	ts   []sim.Time
	vs   []float64
}

// Len returns the number of samples taken.
func (s *Series) Len() int { return len(s.ts) }

// At returns sample i as (time, value).
func (s *Series) At(i int) (sim.Time, float64) { return s.ts[i], s.vs[i] }

// Values returns the sampled values (shared slice; do not mutate).
func (s *Series) Values() []float64 { return s.vs }

// key identifies a metric within its kind.
type key struct {
	name string
	spu  core.SPUID
}

// Registry owns every metric of one machine. Metrics register once
// (re-registration returns the existing handle) and export in
// registration order, which is what makes exports deterministic.
// A nil *Registry is valid: registration returns nil handles and
// Sample is a no-op.
type Registry struct {
	eng    *sim.Engine
	period sim.Time

	counters []*Counter
	gauges   []*Gauge
	dists    []*Distribution
	series   []*Series

	counterIdx map[key]*Counter
	gaugeIdx   map[key]*Gauge
	distIdx    map[key]*Distribution
	seriesIdx  map[key]*Series
}

// New creates a registry on the given engine. period is the series
// sample interval (DefaultPeriod when <= 0). The caller owns driving
// Sample — the kernel runs it from a ticker so sampling lands exactly on
// the simulation clock.
func New(eng *sim.Engine, period sim.Time) *Registry {
	if period <= 0 {
		period = DefaultPeriod
	}
	return &Registry{
		eng:        eng,
		period:     period,
		counterIdx: make(map[key]*Counter),
		gaugeIdx:   make(map[key]*Gauge),
		distIdx:    make(map[key]*Distribution),
		seriesIdx:  make(map[key]*Series),
	}
}

// Period returns the series sample interval.
func (r *Registry) Period() sim.Time {
	if r == nil {
		return 0
	}
	return r.period
}

// Counter registers (or retrieves) the counter for (name, spu). Returns
// nil on a nil registry.
func (r *Registry) Counter(name string, spu core.SPUID) *Counter {
	if r == nil {
		return nil
	}
	k := key{name, spu}
	if c, ok := r.counterIdx[k]; ok {
		return c
	}
	c := &Counter{Name: name, SPU: spu}
	r.counterIdx[k] = c
	r.counters = append(r.counters, c)
	return c
}

// Gauge registers a pull-style gauge evaluated at export time. Returns
// nil on a nil registry; re-registering replaces the closure.
func (r *Registry) Gauge(name string, spu core.SPUID, fn func() float64) *Gauge {
	if r == nil {
		return nil
	}
	k := key{name, spu}
	if g, ok := r.gaugeIdx[k]; ok {
		g.fn = fn
		return g
	}
	g := &Gauge{Name: name, SPU: spu, fn: fn}
	r.gaugeIdx[k] = g
	r.gauges = append(r.gauges, g)
	return g
}

// Distribution registers (or retrieves) the distribution for (name, spu).
func (r *Registry) Distribution(name string, spu core.SPUID) *Distribution {
	if r == nil {
		return nil
	}
	k := key{name, spu}
	if d, ok := r.distIdx[k]; ok {
		return d
	}
	d := &Distribution{Name: name, SPU: spu}
	r.distIdx[k] = d
	r.dists = append(r.dists, d)
	return d
}

// Series registers a sampled time series for (name, spu). Returns nil on
// a nil registry; re-registering replaces the closure and keeps samples.
func (r *Registry) Series(name string, spu core.SPUID, fn func() float64) *Series {
	if r == nil {
		return nil
	}
	k := key{name, spu}
	if s, ok := r.seriesIdx[k]; ok {
		s.fn = fn
		return s
	}
	s := &Series{Name: name, SPU: spu, fn: fn}
	r.seriesIdx[k] = s
	r.series = append(r.series, s)
	return s
}

// Sample appends one observation to every registered series, stamped
// with the current simulation time. The kernel drives this from a
// ticker at the registry period. Sampling only reads machine state, so
// enabling metrics never perturbs simulation results.
func (r *Registry) Sample() {
	if r == nil {
		return
	}
	now := r.eng.Now()
	for _, s := range r.series {
		s.ts = append(s.ts, now)
		s.vs = append(s.vs, s.fn())
	}
}

// Counters returns the registered counters in registration order.
func (r *Registry) Counters() []*Counter {
	if r == nil {
		return nil
	}
	return r.counters
}

// Distributions returns the registered distributions in registration order.
func (r *Registry) Distributions() []*Distribution {
	if r == nil {
		return nil
	}
	return r.dists
}

// AllSeries returns the registered series in registration order.
func (r *Registry) AllSeries() []*Series {
	if r == nil {
		return nil
	}
	return r.series
}

// FindCounter returns the counter for (name, spu), or nil.
func (r *Registry) FindCounter(name string, spu core.SPUID) *Counter {
	if r == nil {
		return nil
	}
	return r.counterIdx[key{name, spu}]
}

// FindDistribution returns the distribution for (name, spu), or nil.
func (r *Registry) FindDistribution(name string, spu core.SPUID) *Distribution {
	if r == nil {
		return nil
	}
	return r.distIdx[key{name, spu}]
}

// FindSeries returns the series for (name, spu), or nil.
func (r *Registry) FindSeries(name string, spu core.SPUID) *Series {
	if r == nil {
		return nil
	}
	return r.seriesIdx[key{name, spu}]
}
