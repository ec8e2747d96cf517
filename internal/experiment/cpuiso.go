package experiment

import (
	"perfiso/internal/core"
	"perfiso/internal/kernel"
	"perfiso/internal/scenario"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
)

// CPUIsoRun is one scheme's measurement: mean response time per
// application type.
type CPUIsoRun struct {
	Ocean     sim.Time
	Flashlite sim.Time
	VCS       sim.Time
}

// CPUIsoResult carries Figure 5.
type CPUIsoResult struct {
	Meter
	Runs map[core.Scheme]CPUIsoRun
}

// RunCPUIso executes the CPU isolation workload (Figure 4's structure):
// SPU 1 runs the four-process Ocean, SPU 2 runs three Flashlite and
// three VCS processes; each SPU owns half the 8-CPU machine. Ten
// processes compete for eight processors, so SPU 2 is overcommitted and
// SPU 1 is not.
func RunCPUIso() CPUIsoResult {
	res := CPUIsoResult{Runs: make(map[core.Scheme]CPUIsoRun)}
	for _, scheme := range Schemes {
		r := scenario.Execute(scenario.Fig5(scheme,
			kernel.Options{MetricsPeriod: metricsPeriod, Profiled: true}, "flashlite"))
		res.observe(r.Kernel, scheme.String())
		res.Runs[scheme] = CPUIsoRun{
			Ocean:     r.Procs[0].ResponseTime(),
			Flashlite: r.Mean(named("flashlite")),
			VCS:       r.Mean(named("vcs")),
		}
	}
	return res
}

// Rows returns Figure 5's bars: per application, the response time under
// each scheme normalized to that application's SMP response (=100).
func (r CPUIsoResult) Rows() []struct {
	App  string
	SMP  float64
	Quo  float64
	PIso float64
} {
	base := r.Runs[core.SMP]
	norm := func(get func(CPUIsoRun) sim.Time) [3]float64 {
		var out [3]float64
		for i, s := range Schemes {
			out[i] = Norm(get(r.Runs[s]), get(base))
		}
		return out
	}
	ocean := norm(func(x CPUIsoRun) sim.Time { return x.Ocean })
	fl := norm(func(x CPUIsoRun) sim.Time { return x.Flashlite })
	vc := norm(func(x CPUIsoRun) sim.Time { return x.VCS })
	return []struct {
		App  string
		SMP  float64
		Quo  float64
		PIso float64
	}{
		{"Ocean", ocean[0], ocean[1], ocean[2]},
		{"Flashlite", fl[0], fl[1], fl[2]},
		{"VCS", vc[0], vc[1], vc[2]},
	}
}

// Table renders Figure 5 as a text table.
func (r CPUIsoResult) Table() *stats.Table {
	t := stats.NewTable(
		"Figure 5: CPU isolation workload — mean response time per application\n"+
			"(normalized to SMP = 100 for each application)",
		"Application", "SMP", "Quo", "PIso")
	for _, row := range r.Rows() {
		t.Addf(row.App, row.SMP, row.Quo, row.PIso)
	}
	return t
}
