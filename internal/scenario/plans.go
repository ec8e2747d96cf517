package scenario

import (
	"fmt"

	"perfiso/internal/core"
	"perfiso/internal/kernel"
	"perfiso/internal/machine"
	"perfiso/internal/sim"
	"perfiso/internal/workload"
)

// The plans below are the configurations that more than one caller
// boots: the experiment registry and the pisosim workloads.

// Pmake8 is Figure 1's job distribution on the Pmake8 machine: eight
// SPUs named by the spu prefix plus 1..8, each on its own disk, with
// one pmake job (pmakeI.J) in each of SPUs 1-4 and heavy jobs in each
// of SPUs 5-8 — 1 is the balanced run, 2 the paper's unbalanced one.
func Pmake8(scheme core.Scheme, opts kernel.Options, spu string, heavy int) Plan {
	p := Plan{Machine: machine.Pmake8(), Scheme: scheme, Options: opts}
	params := workload.DefaultPmake()
	for i := 0; i < 8; i++ {
		p.SPUs = append(p.SPUs, SPU{Name: fmt.Sprintf("%s%d", spu, i+1)})
		jobs := 1
		if i >= 4 {
			jobs = heavy
		}
		for j := 0; j < jobs; j++ {
			p.Jobs = append(p.Jobs, Job{SPU: i, Name: fmt.Sprintf("pmake%d.%d", i+1, j), Pmake: &params})
		}
	}
	return p
}

// Fig5 is the CPU isolation workload (Figure 4's structure): SPU
// "ocean" runs the four-process Ocean, SPU "eda" three Flashlite and
// three VCS processes, on the 8-CPU machine. flashlite prefixes the
// Flashlite job names: Figure 5 says "flashlite", the §3.1 ablations
// "fl".
func Fig5(scheme core.Scheme, opts kernel.Options, flashlite string) Plan {
	ocean, fl, vcs := workload.DefaultOcean(), workload.DefaultFlashlite(), workload.DefaultVCS()
	p := Plan{
		Machine: machine.CPUIsolation(), Scheme: scheme, Options: opts,
		SPUs: []SPU{{Name: "ocean"}, {Name: "eda"}},
		Jobs: []Job{{SPU: 0, Name: "ocean", Ocean: &ocean}},
	}
	for i := 0; i < 3; i++ {
		p.Jobs = append(p.Jobs,
			Job{SPU: 1, Name: fmt.Sprintf("%s%d", flashlite, i), Compute: &fl},
			Job{SPU: 1, Name: fmt.Sprintf("vcs%d", i), Compute: &vcs})
	}
	return p
}

// Fig7 is the memory isolation workload (Figure 6's structure): SPUs
// spu1 and spu2 on the 4-CPU, 16 MB machine, one pmake job each;
// unbalanced gives spu2 a second job.
func Fig7(scheme core.Scheme, opts kernel.Options, unbalanced bool) Plan {
	params := workload.MemPmake()
	p := Plan{
		Machine: machine.MemoryIsolation(), Scheme: scheme, Options: opts,
		SPUs: []SPU{{Name: "spu1"}, {Name: "spu2"}},
		Jobs: []Job{{SPU: 0, Name: "job1", Pmake: &params}, {SPU: 1, Name: "job2a", Pmake: &params}},
	}
	if unbalanced {
		p.Jobs = append(p.Jobs, Job{SPU: 1, Name: "job2b", Pmake: &params})
	}
	return p
}

// Table3 is the pmake-copy workload: SPU "pmake" runs a pmake job, SPU
// "copy" copies a 20 MB file, both on the disk-isolation machine's one
// shared disk.
func Table3(scheme core.Scheme, opts kernel.Options) Plan {
	pmk, cpy := workload.DiskPmake(), workload.DefaultCopy(20*1024*1024)
	return Plan{
		Machine: machine.DiskIsolation(), Scheme: scheme, Options: opts,
		SPUs: []SPU{{Name: "pmake"}, {Name: "copy"}},
		Jobs: []Job{{SPU: 0, Name: "pmake", Pmake: &pmk}, {SPU: 1, Name: "copy", Copy: &cpy}},
	}
}

// TenantHogs is how many compute antagonists the Tenants plan's noise
// SPU runs.
const TenantHogs = 8

// Tenants is the open-arrival experiment's machine: the four
// workload.TenantSet services beside TenantHogs noise hogs of 12 s
// each.
func Tenants(scheme core.Scheme, opts kernel.Options) Plan {
	return TenantMachine(scheme, opts, workload.TenantSet(), TenantHogs,
		workload.ComputeParams{Total: 12 * sim.Second, Chunk: 100 * sim.Millisecond, WSSPages: 50})
}

// TenantMachine is the multi-tenant open-arrival machine: each tenant's
// service in its own SPU, beside a weight-4 noise SPU running hogs
// copies of hog, on the Pmake8 machine. Latency tracking is the point,
// so a zero LatencyWindow becomes 500 ms; under PIso revocation is by
// IPI, because tick-bounded revocation would put a scheduler quantum
// into every tenant's tail (§3.1).
func TenantMachine(scheme core.Scheme, opts kernel.Options, tenants []workload.TenantSpec,
	hogs int, hog workload.ComputeParams) Plan {
	if opts.LatencyWindow == 0 {
		opts.LatencyWindow = 500 * sim.Millisecond
	}
	if scheme == core.PIso {
		opts.IPIRevoke = true
	}
	p := Plan{Machine: machine.Pmake8(), Scheme: scheme, Options: opts}
	for i, ts := range tenants {
		p.SPUs = append(p.SPUs, SPU{Name: ts.Name, Weight: ts.Weight})
		p.Jobs = append(p.Jobs, Job{SPU: i, Name: ts.Name, Open: &tenants[i].Server})
	}
	p.SPUs = append(p.SPUs, SPU{Name: "noise", Weight: 4})
	for i := 0; i < hogs; i++ {
		p.Jobs = append(p.Jobs, Job{SPU: len(tenants), Name: fmt.Sprintf("hog%d", i), Compute: &hog})
	}
	return p
}
