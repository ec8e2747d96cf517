package workload

import (
	"fmt"
	"math"

	"perfiso/internal/core"
	"perfiso/internal/fs"
	"perfiso/internal/kernel"
	"perfiso/internal/latency"
	"perfiso/internal/proc"
	"perfiso/internal/sim"
)

// ArrivalPattern names an open-arrival interarrival process. Open
// arrivals are the workload shape that exposes queueing collapse: the
// next request arrives whether or not the previous one finished, so a
// scheme that delays one handler pays for it in every later handler's
// queueing time — exactly the tail-latency concern of §3.1.
type ArrivalPattern int

const (
	// Periodic arrivals come exactly Mean apart (the closed-form
	// baseline, same shape ServerParams generates).
	Periodic ArrivalPattern = iota
	// Poisson arrivals are exponentially distributed with mean Mean —
	// the classic open-system model.
	Poisson
	// Bursty arrivals follow an on-off (interrupted Poisson) process:
	// exponentially distributed on-phases of mean 10×Mean during which
	// requests arrive BurstFactor times faster than Mean, separated by
	// quiet phases sized closed-loop so the long-run rate stays pinned
	// to one request per Mean.
	Bursty
	// Diurnal arrivals are a Poisson process whose instantaneous rate
	// swings smoothly around 1/Mean — the day/night curve of a real
	// service. Amplitude and period come from DiurnalAmp and
	// DiurnalPeriod; DiurnalPhase offsets tenants against each other so
	// one peaks while another troughs (the load-shift scenario the SLO
	// controller is evaluated under).
	Diurnal
	// TraceDriven arrivals replay an explicit interarrival schedule
	// (Trace), cycling it when Requests exceeds its length — the hook
	// for feeding recorded production arrival traces into the simulator.
	TraceDriven
)

func (p ArrivalPattern) String() string {
	switch p {
	case Periodic:
		return "periodic"
	case Poisson:
		return "poisson"
	case Bursty:
		return "bursty"
	case Diurnal:
		return "diurnal"
	case TraceDriven:
		return "trace"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// OpenServerParams shapes an open-arrival service. The interarrival
// schedule is precomputed from Seed at build time, so a given (params,
// seed) pair produces byte-identical arrivals on every run, at any
// harness parallelism.
type OpenServerParams struct {
	Requests int
	// Mean is the mean interarrival time (the offered load is one
	// request per Mean on average, regardless of Pattern).
	Mean    sim.Time
	Pattern ArrivalPattern
	// BurstFactor shapes the Bursty pattern (default 4); ignored
	// otherwise. On-phases average 10×Mean, and quiet phases are sized
	// closed-loop (each one repays the rate debt its burst
	// accumulated), so the achieved rate is pinned to one request per
	// Mean at any horizon.
	BurstFactor float64
	// DiurnalPeriod, DiurnalAmp, and DiurnalPhase shape the Diurnal
	// pattern: the instantaneous arrival rate is
	// (1 + DiurnalAmp*sin(2π(t/DiurnalPeriod + DiurnalPhase)))/Mean.
	// Zero values default to two full cycles over the run's nominal
	// span and amplitude 0.6; DiurnalPhase is a fraction of a cycle in
	// [0, 1).
	DiurnalPeriod sim.Time
	DiurnalAmp    float64
	DiurnalPhase  float64
	// Trace is the TraceDriven gap schedule, cycled as needed.
	Trace []sim.Time
	// Service is the CPU per request; ServiceJitter, when positive, adds
	// uniform [0, ServiceJitter) per-request jitter from the same seed.
	Service       sim.Time
	ServiceJitter sim.Time
	// ReadBytes/DataBytes mirror ServerParams: per-request reads from a
	// per-tenant data file.
	ReadBytes int64
	DataBytes int64
	// Seed seeds the arrival and jitter schedule (a fixed default when
	// zero, so the zero value is still deterministic).
	Seed uint64
	// SLO, when valid, is registered with the tenant's latency tracker:
	// Target fraction of requests within Threshold.
	SLO latency.SLO
}

// DefaultOpenServer returns a light Poisson service: 400 requests at
// one per 25 ms mean, 2 ms of CPU each, with a 99%-within-20ms SLO.
func DefaultOpenServer() OpenServerParams {
	return OpenServerParams{
		Requests: 400,
		Mean:     25 * sim.Millisecond,
		Pattern:  Poisson,
		Service:  2 * sim.Millisecond,
		SLO:      latency.SLO{Threshold: 20 * sim.Millisecond, Target: 0.99},
	}
}

// Gaps returns the request interarrival schedule: Requests gaps, the
// i-th being the wait before arrival i. Pure function of the params.
func (p OpenServerParams) Gaps() []sim.Time {
	seed := p.Seed
	if seed == 0 {
		seed = 0xa22a1
	}
	rng := sim.NewRNG(seed)
	gaps := make([]sim.Time, p.Requests)
	switch p.Pattern {
	case Periodic:
		for i := range gaps {
			gaps[i] = p.Mean
		}
	case Poisson:
		for i := range gaps {
			gaps[i] = rng.Exp(p.Mean)
		}
	case Bursty:
		on, factor := 10*p.Mean, p.BurstFactor
		if factor <= 1 {
			factor = 4
		}
		// Interrupted Poisson: inside an on-phase arrivals come factor
		// times faster than Mean; a draw that overruns the phase carries
		// its remainder across the quiet phase into the next burst.
		//
		// Quiet phases are sized closed-loop rather than drawn from an
		// open-loop exponential: each one repays exactly the rate debt
		// the preceding burst ran up against the one-request-per-Mean
		// schedule. The open-loop calibration (off = on*(factor-1)) was
		// only correct in expectation — its variance let the achieved
		// rate drift several percent from nominal even over thousands of
		// arrivals (the duty-cycle drift the long-horizon regression
		// test pins), which poisoned any experiment comparing offered
		// load across schemes.
		inMean := sim.Time(float64(p.Mean) / factor)
		rem := rng.Exp(on)
		var cum sim.Time // cumulative scheduled interarrival time
		for i := range gaps {
			var gap sim.Time
			draw := rng.Exp(inMean)
			for draw > rem {
				draw -= rem
				gap += rem
				if ideal := sim.Time(i) * p.Mean; ideal > cum+gap {
					gap = ideal - cum
				}
				rem = rng.Exp(on)
			}
			gap += draw
			rem -= draw
			cum += gap
			gaps[i] = gap
		}
	case Diurnal:
		period := p.DiurnalPeriod
		if period <= 0 {
			// Two full day/night cycles over the run's nominal span.
			period = sim.Time(float64(p.Mean) * float64(p.Requests) / 2)
		}
		amp := p.DiurnalAmp
		if amp <= 0 {
			amp = 0.6
		}
		if amp > 0.95 {
			amp = 0.95 // keep the instantaneous rate strictly positive
		}
		// Inhomogeneous Poisson by local rate scaling: each gap is drawn
		// at the instantaneous rate where the previous arrival landed.
		var cum sim.Time
		for i := range gaps {
			phase := 2 * math.Pi * (float64(cum)/float64(period) + p.DiurnalPhase)
			rel := 1 + amp*math.Sin(phase)
			gaps[i] = rng.Exp(sim.Time(float64(p.Mean) / rel))
			cum += gaps[i]
		}
	case TraceDriven:
		if len(p.Trace) == 0 {
			panic("workload: trace-driven arrivals with an empty trace")
		}
		for i := range gaps {
			gaps[i] = p.Trace[i%len(p.Trace)]
		}
	default:
		panic(fmt.Sprintf("workload: unknown arrival pattern %v", p.Pattern))
	}
	return gaps
}

// OpenServer builds an open-arrival service on the SPU: a dispatcher
// that forks one handler per precomputed arrival, with every completed
// request recorded into the kernel's latency registry under the
// service's name (a no-op when latency tracking is off). The returned
// job censors in-flight requests via CensorTail after bounded runs.
func OpenServer(k *kernel.Kernel, spu core.SPUID, name string, p OpenServerParams) *ServerJob {
	if p.Requests <= 0 {
		panic(fmt.Sprintf("workload: open server %q with %d requests", name, p.Requests))
	}
	if p.Mean <= 0 {
		panic(fmt.Sprintf("workload: open server %q with non-positive mean interarrival", name))
	}
	job := &ServerJob{tracker: k.Latency().Tracker(name, spu, p.SLO)}
	var data *fs.File
	if p.ReadBytes > 0 {
		size := p.DataBytes
		if size <= 0 {
			size = 4 << 20
		}
		data = k.AffinityAllocator(spu).NewFile(name+".data", size, fs.Contiguous, 0)
	}
	seed := p.Seed
	if seed == 0 {
		seed = 0xa22a1
	}
	jitter := sim.NewRNG(seed ^ 0x5e41ce) // independent of the arrival stream
	var steps []proc.Step
	for i, gap := range p.Gaps() {
		service := p.Service
		if p.ServiceJitter > 0 {
			service += jitter.Duration(0, p.ServiceJitter)
		}
		var body []proc.Step
		if data != nil {
			off := (int64(i) * p.ReadBytes) % (data.Size - p.ReadBytes)
			body = append(body, proc.Read{File: data, Off: off, N: p.ReadBytes})
		}
		body = append(body, proc.Compute{D: service})
		h := proc.New(k, spu, fmt.Sprintf("%s.req%d", name, i), body)
		job.recordExit(h)
		// Release the admission slot when the handler exits; only
		// admitted handlers ever exit, so the accounting balances.
		prev := h.OnExit
		h.OnExit = func(p *proc.Process) {
			k.RequestDone(spu)
			if prev != nil {
				prev(p)
			}
		}
		job.handlers = append(job.handlers, h)
		steps = append(steps,
			proc.Sleep{D: gap},
			// Admission control gates every arrival: with the SLO
			// controller off (or no cap set) AdmitRequest always says
			// yes; under overload a refused arrival is shed — counted
			// as a bad observation in the tenant's SLO stats, never
			// silently dropped.
			proc.Fork{Child: h, If: func() bool {
				if k.AdmitRequest(spu) {
					return true
				}
				job.shed++
				job.tracker.RecordShed(k.Engine().Now())
				return false
			}},
		)
	}
	steps = append(steps, proc.WaitChildren{})
	job.Root = proc.New(k, spu, name, steps)
	return job
}

// TenantSpec is one tenant of the multi-tenant open-arrival experiment:
// an SPU weight and the open service running on it.
type TenantSpec struct {
	Name   string
	Weight float64
	Server OpenServerParams
}

// TenantSet is the canonical multi-tenant server mix used by the
// open-arrival experiment and the pisosim "tenants" workload: four
// tenants with distinct arrival processes and SLOs — two plain Poisson
// services, one doing per-request disk reads, and one bursty — all
// sized so the machine is busy but not saturated when isolation works.
func TenantSet() []TenantSpec {
	return []TenantSpec{
		{Name: "web", Weight: 1, Server: OpenServerParams{
			Requests: 300, Mean: 25 * sim.Millisecond, Pattern: Poisson,
			Service: 2 * sim.Millisecond, ServiceJitter: sim.Millisecond,
			Seed: 11, SLO: latency.SLO{Threshold: 20 * sim.Millisecond, Target: 0.99},
		}},
		{Name: "api", Weight: 1, Server: OpenServerParams{
			Requests: 400, Mean: 18 * sim.Millisecond, Pattern: Poisson,
			Service: 3 * sim.Millisecond,
			Seed:    22, SLO: latency.SLO{Threshold: 25 * sim.Millisecond, Target: 0.99},
		}},
		{Name: "search", Weight: 1, Server: OpenServerParams{
			Requests: 200, Mean: 40 * sim.Millisecond, Pattern: Poisson,
			Service: 4 * sim.Millisecond, ReadBytes: 64 * 1024, DataBytes: 8 << 20,
			Seed: 33, SLO: latency.SLO{Threshold: 60 * sim.Millisecond, Target: 0.97},
		}},
		{Name: "batchq", Weight: 1, Server: OpenServerParams{
			Requests: 250, Mean: 30 * sim.Millisecond, Pattern: Bursty,
			BurstFactor: 4, Service: 3 * sim.Millisecond,
			Seed: 44, SLO: latency.SLO{Threshold: 40 * sim.Millisecond, Target: 0.95},
		}},
	}
}

// DiurnalTenantSet is the tenant mix for the closed-loop controller
// experiment: three diurnal tenants whose load peaks are phase-shifted
// around the cycle (so at any instant one tenant is near peak while
// another is in its trough — exactly the shape a static split wastes
// and a retuning controller exploits) plus the bursty batch queue.
// Each tenant's peak demand exceeds its static 1/8 share of the Pmake8
// machine, so holding every SLO requires moving entitlement to
// whichever tenant is peaking.
func DiurnalTenantSet() []TenantSpec {
	const period = 18 * sim.Second
	return []TenantSpec{
		{Name: "web", Weight: 1, Server: OpenServerParams{
			Requests: 3000, Mean: 12 * sim.Millisecond, Pattern: Diurnal,
			DiurnalPeriod: period, DiurnalAmp: 0.65, DiurnalPhase: 0,
			Service: 9 * sim.Millisecond, ServiceJitter: sim.Millisecond,
			Seed: 11, SLO: latency.SLO{Threshold: 45 * sim.Millisecond, Target: 0.99},
		}},
		{Name: "api", Weight: 1, Server: OpenServerParams{
			Requests: 3000, Mean: 12 * sim.Millisecond, Pattern: Diurnal,
			DiurnalPeriod: period, DiurnalAmp: 0.65, DiurnalPhase: 0.5,
			Service: 9 * sim.Millisecond,
			Seed:    22, SLO: latency.SLO{Threshold: 45 * sim.Millisecond, Target: 0.99},
		}},
		{Name: "search", Weight: 1, Server: OpenServerParams{
			Requests: 1200, Mean: 30 * sim.Millisecond, Pattern: Diurnal,
			DiurnalPeriod: period, DiurnalAmp: 0.65, DiurnalPhase: 0.25,
			Service: 5 * sim.Millisecond, ReadBytes: 64 * 1024, DataBytes: 8 << 20,
			Seed: 33, SLO: latency.SLO{Threshold: 60 * sim.Millisecond, Target: 0.97},
		}},
		{Name: "batchq", Weight: 1, Server: OpenServerParams{
			Requests: 1400, Mean: 25 * sim.Millisecond, Pattern: Bursty,
			BurstFactor: 4, Service: 4 * sim.Millisecond,
			Seed: 44, SLO: latency.SLO{Threshold: 80 * sim.Millisecond, Target: 0.96},
		}},
	}
}
