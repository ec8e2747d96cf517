package experiment

import (
	"fmt"

	"perfiso/internal/core"
	"perfiso/internal/kernel"
	"perfiso/internal/scenario"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
)

// SensitivityResult sweeps background load on the Pmake8 machine: SPU 1
// always runs one job; SPUs 5-8 run 1..N jobs each. The paper evaluates
// one unbalanced point (2 jobs); the sweep shows the isolation claim is
// not an artifact of that point — the victim's normalized response stays
// flat under PIso at every load level while SMP's grows with load.
type SensitivityResult struct {
	Meter
	Loads []int // background jobs per heavy SPU
	// Victim[scheme] is the series of SPU 1's normalized response
	// (load=1 for that scheme = 100).
	Victim map[core.Scheme]*stats.Series
}

// RunSensitivity sweeps background jobs per heavy SPU over loads
// (default 1, 2, 3).
func RunSensitivity(loads []int) SensitivityResult {
	if len(loads) == 0 {
		loads = []int{1, 2, 3}
	}
	res := SensitivityResult{Loads: loads, Victim: make(map[core.Scheme]*stats.Series)}
	for _, scheme := range Schemes {
		series := &stats.Series{Name: scheme.String()}
		var base sim.Time
		for _, load := range loads {
			v := runSensitivityPoint(scheme, load, &res.Meter)
			if base == 0 {
				base = v
			}
			series.Add(float64(load), Norm(v, base))
		}
		res.Victim[scheme] = series
	}
	return res
}

// runSensitivityPoint runs the victim job against load background jobs
// in each of SPUs 5-8 and returns the victim's response time.
func runSensitivityPoint(scheme core.Scheme, load int, m *Meter) sim.Time {
	r := scenario.Execute(scenario.Pmake8(scheme, kernel.Options{Profiled: true}, "spu", load))
	m.observe(r.Kernel, fmt.Sprintf("%s/load%d", scheme, load))
	return r.Procs[0].ResponseTime()
}

// Table renders the sweep: one row per load level, one column per
// scheme.
func (r SensitivityResult) Table() *stats.Table {
	t := stats.NewTable(
		"Sensitivity: victim SPU response vs background load\n"+
			"(jobs per heavy SPU; normalized to each scheme's load=1 = 100)",
		"Load", "SMP", "Quo", "PIso")
	for _, load := range r.Loads {
		x := float64(load)
		smp, _ := r.Victim[core.SMP].YAt(x)
		quo, _ := r.Victim[core.Quo].YAt(x)
		piso, _ := r.Victim[core.PIso].YAt(x)
		t.Addf(load, smp, quo, piso)
	}
	return t
}
