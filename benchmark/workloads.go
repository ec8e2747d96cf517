package main

import (
	"fmt"

	"perfiso/internal/control"
	"perfiso/internal/core"
	"perfiso/internal/fault"
	"perfiso/internal/kernel"
	"perfiso/internal/latency"
	"perfiso/internal/machine"
	"perfiso/internal/proc"
	"perfiso/internal/sim"
	"perfiso/internal/workload"
)

// A scenario is one isolation workload, built only through the public
// package APIs (kernel.New, NewSPU, SetAffinity, Boot, the workload
// builders, Spawn) at a chosen scale. Scale 1 is the size of the
// registry scenario it grows from; full is the scale the timed and
// traced passes run, sized so one rep takes roughly a second of host
// time on a 2-CPU machine.
type scenario struct {
	name string
	why  string
	full int

	machine func() machine.Config
	scheme  core.Scheme
	spus    []spuSpec
	// options adds the scenario's own kernel options to the benchmark's
	// observer configuration.
	options func(o *kernel.Options)
	// spawn builds and starts the scenario's jobs on a booted kernel.
	spawn func(k *kernel.Kernel, spus []core.SPUID, seed uint64, scale int) *jobs
}

// spuSpec is one user SPU; disk < 0 keeps the kernel's round-robin
// affinity.
type spuSpec struct {
	name   string
	weight float64
	disk   int
}

// jobs is what a scenario spawned: the results a rep reads back.
type jobs struct {
	// victim is the protected SPU's job, whose response time is the
	// simulated result; nil when the scenario has none.
	victim *proc.Process
	// batch holds every job that must finish before the horizon.
	batch []*proc.Process
	// tenants are open-arrival services with SLOs.
	tenants []tenant
	// horizon, when positive, bounds the run with RunUntil; zero runs
	// every job to completion with Run.
	horizon sim.Time
}

type tenant struct {
	job *workload.ServerJob
	slo latency.SLO
}

// sloFaultPlan is the slo-controller registry experiment's fault plan:
// the search tenant's disk degrades 6x and two CPUs go offline.
const sloFaultPlan = "disk-slow:2:14s:8s:6,cpu-off:6:9s:18s,cpu-off:7:9s:18s"

var scenarios = []*scenario{
	{
		name:    "cpu-gang",
		why:     "dispatch-bound CPU isolation: gang barriers, loans and revocations; almost no disk and no evictions",
		full:    400,
		machine: machine.CPUIsolation,
		scheme:  core.PIso,
		spus:    []spuSpec{{"ocean", 1, 0}, {"eda", 1, 1}},
		spawn: func(k *kernel.Kernel, spus []core.SPUID, _ uint64, scale int) *jobs {
			op := workload.DefaultOcean()
			op.Iterations *= scale
			fp, vp := workload.DefaultFlashlite(), workload.DefaultVCS()
			fp.Total *= sim.Time(scale)
			vp.Total *= sim.Time(scale)
			ocean := workload.Ocean(k, spus[0], "ocean", op)
			k.Spawn(ocean)
			j := &jobs{victim: ocean, batch: []*proc.Process{ocean}}
			for i := 0; i < 3; i++ {
				f := workload.ComputeBound(k, spus[1], fmt.Sprintf("flashlite%d", i), fp)
				v := workload.ComputeBound(k, spus[1], fmt.Sprintf("vcs%d", i), vp)
				k.Spawn(f)
				k.Spawn(v)
				j.batch = append(j.batch, f, v)
			}
			return j
		},
	},
	{
		name:    "mem-thrash",
		why:     "reclaim-bound memory isolation: one SPU thrashes a 16 MB machine, so eviction, swap and theft dominate",
		full:    30,
		machine: machine.MemoryIsolation,
		scheme:  core.PIso,
		spus:    []spuSpec{{"spu1", 1, 0}, {"spu2", 1, 1}},
		spawn: func(k *kernel.Kernel, spus []core.SPUID, _ uint64, scale int) *jobs {
			p := workload.MemPmake()
			p.FilesPerCompile *= scale
			j1 := workload.Pmake(k, spus[0], "job1", p)
			j2a := workload.Pmake(k, spus[1], "job2a", p)
			j2b := workload.Pmake(k, spus[1], "job2b", p)
			for _, j := range []*proc.Process{j1, j2a, j2b} {
				k.Spawn(j)
			}
			return &jobs{victim: j1, batch: []*proc.Process{j1, j2a, j2b}}
		},
	},
	{
		name:    "disk-copy",
		why:     "disk-pick-bound: scattered pmake reads beside a streaming copy on one shared disk with a deep queue",
		full:    3,
		machine: machine.DiskIsolation,
		scheme:  core.PIso,
		spus:    []spuSpec{{"pmake", 1, 0}, {"copy", 1, 0}},
		spawn: func(k *kernel.Kernel, spus []core.SPUID, _ uint64, scale int) *jobs {
			p := workload.DiskPmake()
			p.FilesPerCompile *= scale
			pmk := workload.Pmake(k, spus[0], "pmake", p)
			cpy := workload.Copy(k, spus[1], "copy", workload.DefaultCopy(int64(scale)*20<<20))
			k.Spawn(pmk)
			k.Spawn(cpy)
			return &jobs{victim: pmk, batch: []*proc.Process{pmk, cpy}}
		},
	},
	{
		name:    "tenants-slo",
		why:     "open-loop diurnal tenants under the SLO controller and faults: set-up, heap, latency and control layers",
		full:    8,
		machine: machine.Pmake8,
		scheme:  core.PIso,
		spus: []spuSpec{
			{"web", 1, -1}, {"api", 1, -1}, {"search", 1, -1}, {"batchq", 1, -1}, {"noise", 4, -1},
		},
		options: func(o *kernel.Options) {
			plan, err := fault.ParsePlan(sloFaultPlan)
			if err != nil {
				panic(err)
			}
			o.Faults = plan
			o.LatencyWindow = 500 * sim.Millisecond
			o.IPIRevoke = true
			o.Control = control.Config{Enabled: true, Step: 0.5, Decay: 0.75, Hold: 6}
		},
		spawn: func(k *kernel.Kernel, spus []core.SPUID, seed uint64, scale int) *jobs {
			j := &jobs{horizon: 40 * sim.Second * sim.Time(scale)}
			for i, ts := range workload.DiurnalTenantSet() {
				p := ts.Server
				p.Requests *= scale
				p.Seed ^= seed
				sj := workload.OpenServer(k, spus[i], ts.Name, p)
				k.Spawn(sj.Root)
				j.batch = append(j.batch, sj.Root)
				j.tenants = append(j.tenants, tenant{job: sj, slo: p.SLO})
			}
			noise := spus[len(spus)-1]
			for i := 0; i < 64; i++ {
				k.Spawn(workload.ComputeBound(k, noise, fmt.Sprintf("hog%d", i),
					workload.ComputeParams{Total: 200 * sim.Second, Chunk: 50 * sim.Millisecond, WSSPages: 50}))
			}
			return j
		},
	},
}

// findScenario returns the named scenario, or nil.
func findScenario(name string) *scenario {
	for _, sc := range scenarios {
		if sc.name == name {
			return sc
		}
	}
	return nil
}
