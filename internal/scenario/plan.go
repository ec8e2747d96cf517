package scenario

import (
	"fmt"

	"perfiso/internal/core"
	"perfiso/internal/kernel"
	"perfiso/internal/machine"
	"perfiso/internal/proc"
	"perfiso/internal/sim"
	"perfiso/internal/workload"
)

// Plan describes one simulation run as data: the machine, the
// allocation scheme and kernel options, the SPUs, and the jobs they
// run. Every experiment, soak case, pisosim workload and JSON scenario
// is a Plan run through Boot, Start and Finish.
type Plan struct {
	Machine machine.Config
	Scheme  core.Scheme
	Options kernel.Options
	SPUs    []SPU
	// Jobs are built in this order, which fixes process ids and file
	// placement.
	Jobs []Job
	// Spawn optionally starts the jobs in another order than they were
	// built: a permutation of indices into Jobs. Nil starts them in
	// build order.
	Spawn []int
	// Until, when positive, stops the run at that instant and censors
	// the server requests still in flight; zero runs every job to
	// completion.
	Until sim.Time
}

// SPU declares one user SPU.
type SPU struct {
	Name string
	// Weight is the SPU's relative share; zero or negative means 1.
	Weight float64
	// Disk pins the SPU's swap and files to a disk index; nil keeps the
	// kernel's round-robin default (SPU i on disk i mod disks).
	Disk *int
}

// Job declares one workload instance. Exactly one parameter set is
// non-nil; it picks the workload generator.
type Job struct {
	// SPU indexes Plan.SPUs.
	SPU  int
	Name string

	Pmake   *workload.PmakeParams
	Copy    *workload.CopyParams
	Ocean   *workload.OceanParams
	Compute *workload.ComputeParams
	Lookup  *workload.LookupParams
	Server  *workload.ServerParams
	Open    *workload.OpenServerParams
}

// build creates the job's root process, plus its server handle for
// Server and Open jobs.
func (j Job) build(k *kernel.Kernel, spu core.SPUID) (*proc.Process, *workload.ServerJob) {
	n := 0
	for _, set := range []bool{j.Pmake != nil, j.Copy != nil, j.Ocean != nil,
		j.Compute != nil, j.Lookup != nil, j.Server != nil, j.Open != nil} {
		if set {
			n++
		}
	}
	if n != 1 {
		panic(fmt.Sprintf("scenario: job %q has %d parameter sets, want exactly one", j.Name, n))
	}
	switch {
	case j.Pmake != nil:
		return workload.Pmake(k, spu, j.Name, *j.Pmake), nil
	case j.Copy != nil:
		return workload.Copy(k, spu, j.Name, *j.Copy), nil
	case j.Ocean != nil:
		return workload.Ocean(k, spu, j.Name, *j.Ocean), nil
	case j.Compute != nil:
		return workload.ComputeBound(k, spu, j.Name, *j.Compute), nil
	case j.Lookup != nil:
		return workload.LookupLoop(k, spu, j.Name, *j.Lookup), nil
	case j.Server != nil:
		s := workload.Server(k, spu, j.Name, *j.Server)
		return s.Root, s
	default:
		s := workload.OpenServer(k, spu, j.Name, *j.Open)
		return s.Root, s
	}
}

// Run is a Plan in progress: the booted kernel and, once started, each
// job's root process and server handle, indexed like Plan.Jobs.
type Run struct {
	Plan    Plan
	Kernel  *kernel.Kernel
	SPUs    []*core.SPU
	Procs   []*proc.Process
	Servers []*workload.ServerJob // nil for jobs that are not servers
	// End is the completion time (or Until), set by Finish.
	End sim.Time
}

// Boot creates the kernel and the plan's SPUs and boots it. Settings
// that must precede the first process step (FS hold times, injected
// events) go between Boot and Start: a process's first steps run
// inside its Spawn.
func Boot(p Plan) *Run {
	k := kernel.New(p.Machine, p.Scheme, p.Options)
	r := &Run{Plan: p, Kernel: k}
	for _, s := range p.SPUs {
		w := s.Weight
		if w <= 0 {
			w = 1
		}
		u := k.NewSPU(s.Name, w)
		if s.Disk != nil {
			k.SetAffinity(u.ID(), *s.Disk)
		}
		r.SPUs = append(r.SPUs, u)
	}
	k.Boot()
	return r
}

// Start builds every job in plan order, then spawns them in the plan's
// spawn order.
func (r *Run) Start() {
	jobs := r.Plan.Jobs
	r.Procs = make([]*proc.Process, len(jobs))
	r.Servers = make([]*workload.ServerJob, len(jobs))
	for i, j := range jobs {
		r.Procs[i], r.Servers[i] = j.build(r.Kernel, r.SPUs[j.SPU].ID())
	}
	if r.Plan.Spawn == nil {
		for _, p := range r.Procs {
			r.Kernel.Spawn(p)
		}
		return
	}
	for _, i := range r.Plan.Spawn {
		r.Kernel.Spawn(r.Procs[i])
	}
}

// Finish runs every job to completion, or — with Until set — to that
// instant, folding the server requests still in flight into their
// latency trackers as right-censored samples. It returns the end time.
func (r *Run) Finish() sim.Time {
	if r.Plan.Until <= 0 {
		r.End = r.Kernel.Run()
		return r.End
	}
	r.Kernel.RunUntil(r.Plan.Until)
	r.End = r.Plan.Until
	for _, s := range r.Servers {
		if s != nil {
			s.CensorTail(r.End)
		}
	}
	return r.End
}

// Execute boots, starts and finishes the plan.
func Execute(p Plan) *Run {
	r := Boot(p)
	r.Start()
	r.Finish()
	return r
}

// Mean returns the mean response time of the jobs keep selects, or 0
// when it selects none.
func (r *Run) Mean(keep func(Job) bool) sim.Time {
	var sum, n sim.Time
	for i, j := range r.Plan.Jobs {
		if keep(j) {
			sum += r.Procs[i].ResponseTime()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}
