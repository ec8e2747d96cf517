package workload

import (
	"fmt"

	"perfiso/internal/core"
	"perfiso/internal/kernel"
	"perfiso/internal/latency"
	"perfiso/internal/proc"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
)

// ServerParams shapes an interactive service: a dispatcher that spawns
// one short-lived request handler every Interarrival. Each handler
// optionally reads from the service's data file and then computes for
// Service. Per-request latency is the handler process's response time.
//
// This workload exercises the paper's response-time concern (§3.1): an
// interactive SPU needs its CPUs back *quickly* when a request arrives,
// which is what bounds tail latency — and why the paper suggests IPI
// revocation for "response time performance isolation guarantees".
type ServerParams struct {
	Requests     int
	Interarrival sim.Time
	Service      sim.Time // CPU per request
	ReadBytes    int64    // bytes read from the data file per request (0 = none)
	DataBytes    int64    // data file size (defaults to 4 MB when reads are used)
}

// DefaultServer returns a light interactive service: 200 requests, one
// every 25 ms, 2 ms of CPU each.
func DefaultServer() ServerParams {
	return ServerParams{Requests: 200, Interarrival: 25 * sim.Millisecond, Service: 2 * sim.Millisecond}
}

// ServerJob is a running service: the dispatcher root, one record per
// request that has arrived, and counters over them. Handler processes
// are not kept: a request's record holds all that its latency needs.
type ServerJob struct {
	Root     *proc.Process
	tracker  *latency.Tracker
	reqs     []request // one per arrival so far, in arrival order
	requests int       // arrivals the dispatcher will make in all
	started  int
	exited   int
	shed     int
}

// request is one arrival's record. A shed arrival stays Created.
type request struct {
	started, finished sim.Time
	state             proc.State
}

// start marks request i's handler started at now.
func (j *ServerJob) start(i int, now sim.Time) {
	j.reqs[i] = request{started: now, state: proc.Running}
	j.started++
}

// finish marks request i's handler exited at now.
func (j *ServerJob) finish(i int, now sim.Time) {
	j.reqs[i].finished = now
	j.reqs[i].state = proc.Exited
	j.exited++
}

// latency returns request r's latency at now and whether it has one:
// its response time once exited, and the elapsed now − start, a
// right-censored lower bound, while it runs.
func (r request) latency(now sim.Time) (sim.Time, bool) {
	switch r.state {
	case proc.Exited:
		return r.finished - r.started, true
	case proc.Running:
		return now - r.started, now > r.started
	}
	return 0, false
}

// Shed returns how many arrivals admission control refused. Shed
// requests never start, so they are excluded from Pending/InFlight
// censoring — their SLO cost is carried by the tracker's shed count.
func (j *ServerJob) Shed() int { return j.shed }

// Completed returns how many request handlers have exited.
func (j *ServerJob) Completed() int { return j.exited }

// InFlight returns how many request handlers have started but not
// exited — requests a horizon-bounded run right-censors.
func (j *ServerJob) InFlight() int { return j.started - j.exited }

// Pending returns how many requests have not started yet because the
// dispatcher never reached their arrival. Shed requests also never
// start but are counted by Shed, not here.
func (j *ServerJob) Pending() int { return j.requests - j.started - j.shed }

// Latencies returns a sample of per-request latencies in seconds,
// censored: requests still in flight at now contribute their elapsed
// time (now − start) as a lower bound, so a scheme that strands
// requests cannot report a clean tail. Pass the run's end time (the
// engine clock after Run, or the horizon for a bounded run).
func (j *ServerJob) Latencies(now sim.Time) *stats.Sample {
	var s stats.Sample
	for _, r := range j.reqs {
		if d, ok := r.latency(now); ok {
			s.AddTime(d)
		}
	}
	return &s
}

// MaxLatency returns the worst request latency, censored the same way
// as Latencies.
func (j *ServerJob) MaxLatency(now sim.Time) sim.Time {
	var max sim.Time
	for _, r := range j.reqs {
		if d, ok := r.latency(now); ok && d > max {
			max = d
		}
	}
	return max
}

// LatencyQuantile returns the q-quantile (0..1) of request latencies,
// e.g. 0.99 for the p99 tail, censored the same way as Latencies. It
// is exact (stats.Quantile's nearest rank), unlike the tracker's
// bucketed quantiles, and works with latency tracking off.
func (j *ServerJob) LatencyQuantile(now sim.Time, q float64) sim.Time {
	var vs []float64
	for _, r := range j.reqs {
		if d, ok := r.latency(now); ok {
			vs = append(vs, float64(d))
		}
	}
	return sim.Time(stats.Quantile(vs, q))
}

// Tracker returns the job's latency tracker (nil when the kernel's
// latency registry is off).
func (j *ServerJob) Tracker() *latency.Tracker { return j.tracker }

// CensorTail folds every request still in flight at now into the job's
// latency tracker as right-censored lower bounds and returns how many
// there were. Call it once after a bounded run, before exporting.
func (j *ServerJob) CensorTail(now sim.Time) int {
	n := 0
	for _, r := range j.reqs {
		if r.state == proc.Running && now > r.started {
			j.tracker.RecordCensored(now, now-r.started)
			n++
		}
	}
	return n
}

// Server builds the interactive service for the SPU: an OpenServer
// with Periodic arrivals, one request every Interarrival.
func Server(k *kernel.Kernel, spu core.SPUID, name string, p ServerParams) *ServerJob {
	if p.Requests <= 0 {
		panic(fmt.Sprintf("workload: server %q with %d requests", name, p.Requests))
	}
	return OpenServer(k, spu, name, OpenServerParams{
		Requests: p.Requests, Mean: p.Interarrival, Pattern: Periodic,
		Service: p.Service, ReadBytes: p.ReadBytes, DataBytes: p.DataBytes,
	})
}
