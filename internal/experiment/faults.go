package experiment

import (
	"fmt"

	"perfiso/internal/core"
	"perfiso/internal/fault"
	"perfiso/internal/kernel"
	"perfiso/internal/machine"
	"perfiso/internal/scenario"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
	"perfiso/internal/workload"
)

// DefaultFaultPlan is the isolation-under-faults schedule: every fault
// lands on resources the victim SPU owns under an isolating scheme —
// its affinity disk (disk 0) and the low-index CPUs that AssignHomes
// gives the first user SPU — plus a global frame loss. Times are chosen
// so the faults cover the bulk of a DefaultPmake run (~3 s).
const DefaultFaultPlan = "disk-fail:0:300ms:1500ms:0.4," +
	"disk-slow:0:300ms:1500ms:4," +
	"cpu-slow:0:200ms:2s:0.25," +
	"cpu-off:1:200ms:2s," +
	"mem-loss:0:400ms:1500ms:0.2"

// FaultRun is one scheme's measurement: mean pmake response time for
// the victim SPU (whose resources are faulted) and the steady SPU, in
// the faulted run and in a fault-free baseline run of the same kernel
// configuration.
type FaultRun struct {
	Victim, VictimBase sim.Time
	Steady, SteadyBase sim.Time
}

// FaultResult carries the isolation-under-faults family.
type FaultResult struct {
	Meter
	Plan string
	Runs map[core.Scheme]FaultRun
}

// RunFaults executes the isolation-under-faults family: two equal SPUs
// on the 8-CPU fault-isolation machine, each running one pmake job on
// its own disk. The fault plan degrades the victim SPU's disk and CPUs
// and removes frames machine-wide; each scheme runs once clean and once
// faulted. The isolation question is the steady SPU's column: under
// PIso the faults are absorbed by the victim's partition, under SMP the
// shared pools spread them to the bystander.
func RunFaults() FaultResult {
	res := FaultResult{Plan: DefaultFaultPlan, Runs: make(map[core.Scheme]FaultRun)}
	for _, scheme := range Schemes {
		base := runFaultConfig(scheme, "", &res.Meter)
		faulted := runFaultConfig(scheme, DefaultFaultPlan, &res.Meter)
		res.Runs[scheme] = FaultRun{
			Victim: faulted.Victim, VictimBase: base.Victim,
			Steady: faulted.Steady, SteadyBase: base.Steady,
		}
	}
	return res
}

// runFaultConfig boots one kernel (clean when spec is empty) and
// returns the two SPUs' pmake response times.
func runFaultConfig(scheme core.Scheme, spec string, m *Meter) FaultRun {
	opts := kernel.Options{MetricsPeriod: metricsPeriod, Profiled: true}
	config := scheme.String() + "/clean"
	if spec != "" {
		plan, err := fault.ParsePlan(spec)
		if err != nil {
			panic(fmt.Sprintf("experiment: bad fault plan: %v", err))
		}
		opts.Faults, config = plan, scheme.String()+"/faulted"
	}
	params := workload.DefaultPmake()
	// The victim SPU is created first so AssignHomes gives it the
	// low-index CPUs the plan targets; by the round-robin default its
	// files live on disk 0.
	r := scenario.Execute(scenario.Plan{
		Machine: machine.FaultIsolation(), Scheme: scheme, Options: opts,
		SPUs: []scenario.SPU{{Name: "victim"}, {Name: "steady"}},
		Jobs: []scenario.Job{
			{SPU: 0, Name: "victim-pmake", Pmake: &params},
			{SPU: 1, Name: "steady-pmake", Pmake: &params},
		},
	})
	m.observe(r.Kernel, config)
	return FaultRun{Victim: r.Procs[0].ResponseTime(), Steady: r.Procs[1].ResponseTime()}
}

// Rows returns, per scheme, each SPU's faulted response time normalized
// to that scheme's own fault-free run (=100).
func (r FaultResult) Rows() []struct {
	Scheme core.Scheme
	Victim float64
	Steady float64
} {
	out := make([]struct {
		Scheme core.Scheme
		Victim float64
		Steady float64
	}, 0, len(Schemes))
	for _, s := range Schemes {
		run := r.Runs[s]
		out = append(out, struct {
			Scheme core.Scheme
			Victim float64
			Steady float64
		}{s, Norm(run.Victim, run.VictimBase), Norm(run.Steady, run.SteadyBase)})
	}
	return out
}

// Table renders the family as a text table.
func (r FaultResult) Table() *stats.Table {
	t := stats.NewTable(
		"Isolation under faults — pmake response time in the faulted run\n"+
			"(normalized to the same scheme's fault-free run = 100;\n"+
			"faults target the victim SPU's disk and CPUs, plus a global frame loss)",
		"Scheme", "Victim SPU", "Steady SPU")
	for _, row := range r.Rows() {
		t.Addf(row.Scheme.String(), row.Victim, row.Steady)
	}
	return t
}
