package experiment

import (
	"perfiso/internal/kernel"
	"perfiso/internal/sim"
)

// Meter records how much raw simulation work a runner performed. Result
// types embed it so the benchmark harness can report throughput
// (events/sec) per experiment without reaching into kernels.
type Meter struct {
	// Events is the number of simulation events dispatched, summed over
	// every engine the runner booted.
	Events uint64
	// Metrics carries one summary per kernel that ran with
	// observability on, in run order (see Meter.observe).
	Metrics []MetricSummary
	// Attribution carries one profiler summary per kernel that ran
	// with profiling on, in run order (see Meter.observe).
	Attribution []AttributionSummary
	// Latency carries one tail-latency summary per kernel that ran
	// with latency tracking on, in run order (see Meter.observe).
	Latency []LatencySummary
	// Controller carries one controller summary per kernel that ran
	// with the closed loop on, in run order (see Meter.observe).
	Controller []ControllerSummary
}

// meter returns the meter a result embeds.
func (m Meter) meter() Meter { return m }

// count folds a finished kernel's engine dispatch total into the meter.
func (m *Meter) count(k *kernel.Kernel) { m.Events += k.Engine().Dispatched() }

// countEngine folds a bare engine's dispatch total into the meter.
func (m *Meter) countEngine(e *sim.Engine) { m.Events += e.Dispatched() }
