package perfiso

import "perfiso/internal/scenario"

// WorkloadSpec is one canonical single-run scenario — the Table 1
// machine/workload combinations — registered by name so cmd/pisosim's
// -workload lookup, tests, and library users resolve them through one
// place instead of hand-rolled switches.
type WorkloadSpec struct {
	// Name is the -workload identifier.
	Name string
	// Desc is a one-line description.
	Desc string
	// Unbalanced reports whether the unbalanced flag changes this
	// workload's job distribution.
	Unbalanced bool
	// Build boots a System with the workload's SPUs and jobs attached,
	// through the same plans the experiment registry runs. The caller
	// runs it (sys.Run()) and reads sys.Jobs().
	Build func(scheme Scheme, opts Options, unbalanced bool) *System
}

// Workloads returns the registry of canonical workloads in presentation
// order.
func Workloads() []WorkloadSpec {
	return []WorkloadSpec{
		{
			Name: "pmake8", Desc: "8 CPUs, 8 SPUs, pmake jobs (Figures 2-3)", Unbalanced: true,
			Build: func(s Scheme, o Options, unbalanced bool) *System {
				heavy := 1
				if unbalanced {
					heavy = 2
				}
				return start(scenario.Pmake8(s, o, "user", heavy))
			},
		},
		{
			Name: "cpu", Desc: "Ocean vs 3x Flashlite + 3x VCS (Figure 5)",
			Build: func(s Scheme, o Options, _ bool) *System { return start(scenario.Fig5(s, o, "flashlite")) },
		},
		{
			Name: "mem", Desc: "pmake jobs under memory pressure (Figure 7)", Unbalanced: true,
			Build: func(s Scheme, o Options, unbalanced bool) *System { return start(scenario.Fig7(s, o, unbalanced)) },
		},
		{
			Name: "disk", Desc: "pmake vs 20 MB copy on one shared disk (Table 3)",
			Build: func(s Scheme, o Options, _ bool) *System { return start(scenario.Table3(s, o)) },
		},
		{
			Name: "tenants", Desc: "4 open-arrival server tenants vs a noisy neighbor (tail latency)",
			Build: func(s Scheme, o Options, _ bool) *System { return start(scenario.Tenants(s, o)) },
		},
	}
}

// WorkloadNames returns every registered workload name in order.
func WorkloadNames() []string {
	specs := Workloads()
	out := make([]string, len(specs))
	for i, w := range specs {
		out[i] = w.Name
	}
	return out
}

// LookupWorkload resolves a workload name against the registry.
func LookupWorkload(name string) (WorkloadSpec, bool) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return WorkloadSpec{}, false
}

// start boots the plan and spawns its jobs, leaving the caller to Run.
func start(p scenario.Plan) *System {
	r := scenario.Boot(p)
	r.Start()
	return &System{k: r.Kernel, jobs: r.Procs}
}
