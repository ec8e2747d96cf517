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

// ServerJob is a running service: the dispatcher root and the request
// handlers it spawns (populated as the run progresses).
type ServerJob struct {
	Root     *proc.Process
	handlers []*proc.Process
	tracker  *latency.Tracker
	shed     int
}

// Shed returns how many arrivals admission control refused. Shed
// requests never start, so they are excluded from Pending/InFlight
// censoring — their SLO cost is carried by the tracker's shed count.
func (j *ServerJob) Shed() int { return j.shed }

// Completed returns how many request handlers have exited.
func (j *ServerJob) Completed() int {
	n := 0
	for _, h := range j.handlers {
		if h.State() == proc.Exited {
			n++
		}
	}
	return n
}

// InFlight returns how many request handlers have started but not
// exited — requests a horizon-bounded run right-censors.
func (j *ServerJob) InFlight() int {
	n := 0
	for _, h := range j.handlers {
		if h.State() == proc.Running {
			n++
		}
	}
	return n
}

// Pending returns how many request handlers have not started yet
// because the dispatcher never reached their arrival. Shed handlers
// also never start but are counted by Shed, not here.
func (j *ServerJob) Pending() int {
	n := 0
	for _, h := range j.handlers {
		if h.State() == proc.Created {
			n++
		}
	}
	return n - j.shed
}

// Latencies returns a sample of per-request latencies in seconds,
// censored: requests still in flight at now contribute their elapsed
// time (now − start) as a lower bound, so a scheme that strands
// requests cannot report a clean tail. Pass the run's end time (the
// engine clock after Run, or the horizon for a bounded run).
func (j *ServerJob) Latencies(now sim.Time) *stats.Sample {
	var s stats.Sample
	for _, h := range j.handlers {
		switch h.State() {
		case proc.Exited:
			s.AddTime(h.ResponseTime())
		case proc.Running:
			if now > h.Started {
				s.AddTime(now - h.Started)
			}
		}
	}
	return &s
}

// MaxLatency returns the worst request latency, censored the same way
// as Latencies.
func (j *ServerJob) MaxLatency(now sim.Time) sim.Time {
	var max sim.Time
	for _, h := range j.handlers {
		var d sim.Time
		switch h.State() {
		case proc.Exited:
			d = h.ResponseTime()
		case proc.Running:
			d = now - h.Started
		}
		if d > max {
			max = d
		}
	}
	return max
}

// LatencyQuantile returns the q-quantile (0..1) of request latencies,
// e.g. 0.99 for the p99 tail, censored the same way as Latencies.
func (j *ServerJob) LatencyQuantile(now sim.Time, q float64) sim.Time {
	var vs []float64
	for _, h := range j.handlers {
		switch h.State() {
		case proc.Exited:
			vs = append(vs, float64(h.ResponseTime()))
		case proc.Running:
			if now > h.Started {
				vs = append(vs, float64(now-h.Started))
			}
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
	for _, h := range j.handlers {
		if h.State() == proc.Running && now > h.Started {
			j.tracker.RecordCensored(now, now-h.Started)
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

// recordExit chains a latency-recording hook onto the handler's exit:
// the completed request's response time lands in the job's tracker at
// the handler's finish time. A nil tracker (latency off) costs one nil
// check per request.
func (j *ServerJob) recordExit(h *proc.Process) {
	prev := h.OnExit
	h.OnExit = func(p *proc.Process) {
		j.tracker.Record(p.Finished, p.ResponseTime())
		if prev != nil {
			prev(p)
		}
	}
}
