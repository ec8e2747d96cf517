// Package perfiso is a library-grade reproduction of "Performance
// Isolation: Sharing and Isolation in Shared-Memory Multiprocessors"
// (Verghese, Gupta & Rosenblum, ASPLOS 1998).
//
// It provides a deterministic simulation of a shared-memory
// multiprocessor server — CPUs with an IRIX-like scheduler, physical
// memory with paging, HP 97560 disks with a file system and buffer
// cache — whose resources are managed through the paper's Software
// Performance Unit (SPU) abstraction. Three allocation schemes are
// built in:
//
//   - SMP:  unconstrained sharing, no isolation (unmodified IRIX 5.3);
//   - Quo:  fixed quotas per SPU, no sharing;
//   - PIso: performance isolation — per-SPU limits plus careful lending
//     of idle resources, revoked when the owners return.
//
// Typical use: pick a Machine, choose a Scheme, create SPUs, attach
// workloads, and Run:
//
//	sys := perfiso.New(perfiso.Pmake8Machine(), perfiso.PIso, perfiso.Options{})
//	alice := sys.NewSPU("alice", 1)
//	bob := sys.NewSPU("bob", 2) // bob owns two thirds of the machine
//	sys.Boot()
//	job := sys.Pmake(alice, "build", perfiso.DefaultPmake())
//	sys.Run()
//	fmt.Println(job.ResponseTime())
//
// The experiment harness that regenerates every table and figure of the
// paper's evaluation lives behind ReproduceAll and the cmd/pisobench
// binary; see EXPERIMENTS.md for paper-vs-measured numbers.
package perfiso

import (
	"runtime"

	"perfiso/internal/artifact"
	"perfiso/internal/control"
	"perfiso/internal/core"
	"perfiso/internal/disk"
	"perfiso/internal/experiment"
	"perfiso/internal/fault"
	"perfiso/internal/kernel"
	"perfiso/internal/latency"
	"perfiso/internal/machine"
	"perfiso/internal/proc"
	"perfiso/internal/sim"
	"perfiso/internal/workload"
)

// Re-exported core vocabulary. These are aliases, so values flow freely
// between the facade and the harness.
type (
	// Scheme is a whole-machine resource allocation scheme (Table 2).
	Scheme = core.Scheme
	// SPU is one software performance unit: a group of processes and
	// its resource levels.
	SPU = core.SPU
	// SPUID identifies an SPU.
	SPUID = core.SPUID
	// Machine describes simulated hardware.
	Machine = machine.Config
	// Options tunes kernel behaviour (thresholds, revocation, locks).
	Options = kernel.Options
	// Time is simulated time in nanoseconds.
	Time = sim.Time
	// Process is a runnable simulated process.
	Process = proc.Process
	// Step is one instruction of a process program.
	Step = proc.Step
	// PmakeParams shapes a pmake job.
	PmakeParams = workload.PmakeParams
	// CopyParams shapes a file-copy job.
	CopyParams = workload.CopyParams
	// OceanParams shapes the Ocean gang.
	OceanParams = workload.OceanParams
	// ComputeParams shapes a compute-bound process.
	ComputeParams = workload.ComputeParams
	// ServerParams shapes an interactive request-serving workload.
	ServerParams = workload.ServerParams
	// ServerJob is a running interactive service with per-request
	// latency statistics.
	ServerJob = workload.ServerJob
	// OpenServerParams shapes an open-arrival request-serving workload:
	// requests arrive on their own clock (periodic, Poisson, or bursty)
	// whether or not earlier ones finished.
	OpenServerParams = workload.OpenServerParams
	// ArrivalPattern picks the open workload's interarrival process.
	ArrivalPattern = workload.ArrivalPattern
	// TenantSpec names one tenant of a multi-tenant server machine.
	TenantSpec = workload.TenantSpec
	// LatencySLO is a latency objective: a threshold and the fraction
	// of requests that must meet it.
	LatencySLO = latency.SLO
	// ControlConfig tunes the closed-loop SLO entitlement controller;
	// assign one with Enabled to Options.Control to turn static
	// entitlements adaptive (requires Options.LatencyWindow for the
	// burn-rate sensor).
	ControlConfig = control.Config
	// ControlStats counts controller activity (retunes, boosts, sheds,
	// breaker trips) after a run.
	ControlStats = control.Stats
)

// Arrival patterns for OpenServerParams.
const (
	Periodic = workload.Periodic
	Poisson  = workload.Poisson
	Bursty   = workload.Bursty
)

// Program step constructors, re-exported for building custom workloads.
type (
	// Compute consumes CPU time.
	Compute = proc.Compute
	// Sleep blocks without using resources.
	Sleep = proc.Sleep
	// Touch sets the working-set target in pages.
	Touch = proc.Touch
)

// The three allocation schemes of Table 2.
const (
	SMP  = core.SMP
	Quo  = core.Quo
	PIso = core.PIso
)

// Duration units for workload parameters.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Machine configurations from Table 1 (FaultIsolationMachine is the
// extension machine for the isolation-under-faults family).
var (
	Pmake8Machine         = machine.Pmake8
	CPUIsolationMachine   = machine.CPUIsolation
	MemIsolationMachine   = machine.MemoryIsolation
	DiskIsolationMachine  = machine.DiskIsolation
	FaultIsolationMachine = machine.FaultIsolation
)

// FaultPlan is a deterministic fault schedule; assign one to
// Options.Faults before New to degrade the machine mid-run.
type FaultPlan = fault.Plan

// ParseFaults parses a fault schedule spec (see the -faults flag of
// pisosim): comma-separated kind:target:at:duration[:severity] events,
// e.g. "disk-fail:0:1s:2s:0.3,cpu-off:1:500ms:0s".
func ParseFaults(spec string) (*FaultPlan, error) { return fault.ParsePlan(spec) }

// Workload parameter presets.
var (
	DefaultPmake      = workload.DefaultPmake
	MemPmake          = workload.MemPmake
	DiskPmake         = workload.DiskPmake
	DefaultCopy       = workload.DefaultCopy
	DefaultOcean      = workload.DefaultOcean
	DefaultFlashlite  = workload.DefaultFlashlite
	DefaultVCS        = workload.DefaultVCS
	DefaultServer     = workload.DefaultServer
	DefaultOpenServer = workload.DefaultOpenServer
	// TenantSet is the four-tenant mix the open-arrival experiment and
	// the pisosim "tenants" workload share.
	TenantSet = workload.TenantSet
	// DiurnalTenantSet is the phase-shifted diurnal tenant mix the
	// slo-controller experiment drives through the closed loop.
	DiurnalTenantSet = workload.DiurnalTenantSet
)

// System is one booted simulated machine plus its workloads.
type System struct {
	k    *kernel.Kernel
	jobs []*Process
}

// New builds a system on the given hardware and allocation scheme.
func New(m Machine, scheme Scheme, opts Options) *System {
	return &System{k: kernel.New(m, scheme, opts)}
}

// Kernel exposes the underlying kernel for advanced use (disk stats,
// file allocators, custom processes).
func (s *System) Kernel() *kernel.Kernel { return s.k }

// NewSPU creates a user SPU with the given relative weight (1.0 = one
// equal share; weight 2 owns twice as much as weight 1).
func (s *System) NewSPU(name string, weight float64) *SPU {
	return s.k.NewSPU(name, weight)
}

// SetAffinity pins an SPU's swap and file placement to a disk index.
func (s *System) SetAffinity(spu SPUID, disk int) { s.k.SetAffinity(spu, disk) }

// SetLendPreference restricts the SPUs that owner lends idle CPUs to
// (§3.1's "explicitly picked" sharing preference). No borrowers means
// lend to anyone (the default).
func (s *System) SetLendPreference(owner *SPU, borrowers ...*SPU) {
	ids := make([]SPUID, len(borrowers))
	for i, b := range borrowers {
		ids[i] = b.ID()
	}
	s.k.Scheduler().SetLendPreference(owner.ID(), ids...)
}

// Rebalance re-divides CPUs and memory among the active SPUs after
// dynamic SPU creation, suspension, or waking (§2.1).
func (s *System) Rebalance() { s.k.Rebalance() }

// Boot divides resources and starts the kernel daemons. Call after
// creating SPUs and before attaching workloads.
func (s *System) Boot() { s.k.Boot() }

// Pmake attaches a pmake job (parallel compiles) to the SPU.
func (s *System) Pmake(spu *SPU, name string, p PmakeParams) *Process {
	return s.spawn(workload.Pmake(s.k, spu.ID(), name, p))
}

// Copy attaches a file-copy job to the SPU.
func (s *System) Copy(spu *SPU, name string, p CopyParams) *Process {
	return s.spawn(workload.Copy(s.k, spu.ID(), name, p))
}

// Ocean attaches a barrier-synchronized parallel gang to the SPU.
func (s *System) Ocean(spu *SPU, name string, p OceanParams) *Process {
	return s.spawn(workload.Ocean(s.k, spu.ID(), name, p))
}

// ComputeBound attaches a long-running compute process to the SPU.
func (s *System) ComputeBound(spu *SPU, name string, p ComputeParams) *Process {
	return s.spawn(workload.ComputeBound(s.k, spu.ID(), name, p))
}

// Server attaches an interactive request-serving workload to the SPU.
// The returned job exposes per-request latency statistics after Run.
func (s *System) Server(spu *SPU, name string, p ServerParams) *ServerJob {
	job := workload.Server(s.k, spu.ID(), name, p)
	s.spawn(job.Root)
	return job
}

// OpenServer attaches an open-arrival request-serving workload to the
// SPU: requests arrive on the pattern's clock regardless of whether
// earlier ones finished, so queueing delay shows up in the latency
// distribution instead of slowing the arrival stream down. Per-request
// latencies feed the kernel's latency registry when
// Options.LatencyWindow is set.
func (s *System) OpenServer(spu *SPU, name string, p OpenServerParams) *ServerJob {
	job := workload.OpenServer(s.k, spu.ID(), name, p)
	s.spawn(job.Root)
	return job
}

// Custom attaches a process running an arbitrary step program.
func (s *System) Custom(spu *SPU, name string, steps []Step) *Process {
	return s.spawn(proc.New(s.k, spu.ID(), name, steps))
}

func (s *System) spawn(p *Process) *Process {
	s.k.Spawn(p)
	s.jobs = append(s.jobs, p)
	return p
}

// Run drives the simulation until every attached job completes and
// returns the makespan (simulated seconds from boot).
func (s *System) Run() Time { return s.k.Run() }

// Jobs returns the attached jobs in attach order.
func (s *System) Jobs() []*Process { return s.jobs }

// Report summarizes a finished run with machine-wide statistics.
type Report struct {
	Makespan       Time
	CPUUtilization float64
	// PageReclaims counts pages the pager evicted (memory pressure).
	PageReclaims int64
	// DirtyWrites counts evictions that had to write the page first —
	// the §3.2 revocation cost.
	DirtyWrites int64
	// MemoryDenials counts allocation attempts denied at an SPU limit.
	MemoryDenials int64
	DiskRequests  int64
}

// Report collects summary statistics after Run.
func (s *System) Report() Report {
	ms := s.k.Memory().Stat
	r := Report{
		Makespan:       s.k.Engine().Now(),
		CPUUtilization: s.k.Scheduler().Utilization(),
		PageReclaims:   ms.Evictions,
		DirtyWrites:    ms.DirtyWrites,
		MemoryDenials:  ms.Denials,
	}
	for i := 0; i < s.k.NumDisks(); i++ {
		r.DiskRequests += s.k.Disk(i).Total.Requests
	}
	return r
}

// DiskStats returns (requests, mean wait seconds, mean positioning
// seconds) for disk i — the quantities Tables 3 and 4 report.
func (s *System) DiskStats(i int) (requests int64, meanWait, meanPos float64) {
	d := s.k.Disk(i)
	return d.Total.Requests, d.Total.Wait.Mean(), d.Total.Pos.Mean()
}

// WriteArtifacts writes the run's artifact set into dir, creating it
// when missing: one file per export of the enabled observers (see
// kernel.Kernel.Artifacts). Options.MetricsPeriod adds metrics.jsonl and
// the Chrome trace trace.json, Options.Profiled the pprof profile
// profile.pb.gz and spans.jsonl, Options.LatencyWindow latency.jsonl and
// Options.Control controller.jsonl.
func (s *System) WriteArtifacts(dir string) error {
	return artifact.WriteDir(dir, s.k.Artifacts())
}

// HP97560 exposes the paper's disk model parameters.
var HP97560 = disk.HP97560

// ReproduceAll runs every experiment of the paper's evaluation plus the
// ablations and extensions — the whole experiment registry, in
// registry order — and returns the formatted tables: what cmd/pisobench
// prints. It takes a few seconds of real time.
func ReproduceAll() string {
	out := ""
	for _, r := range experiment.RunAll(experiment.Registry(), runtime.GOMAXPROCS(0)) {
		if r.Err != nil {
			panic(r.Err)
		}
		for _, s := range r.Output.Sections {
			out += s.Table.String() + "\n"
		}
	}
	return out
}
