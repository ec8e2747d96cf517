package experiment

import (
	"perfiso/internal/core"
	"perfiso/internal/kernel"
	"perfiso/internal/scenario"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
)

// MemIsoRun is one configuration's measurement.
type MemIsoRun struct {
	SPU1 sim.Time // mean job response in SPU 1 (always one job)
	SPU2 sim.Time // mean job response in SPU 2 (one or two jobs)
}

// MemIsoResult carries Figure 7: both graphs derive from the balanced
// and unbalanced runs per scheme.
type MemIsoResult struct {
	Meter
	Balanced   map[core.Scheme]MemIsoRun
	Unbalanced map[core.Scheme]MemIsoRun
	BaseSMP    sim.Time // SMP balanced SPU1 response (normalization base)
}

// RunMemIso executes the memory-isolation workload (Figure 6's
// structure): two SPUs on a 4-CPU, 16 MB machine; memory suffices for
// one pmake job per SPU but two jobs in one SPU cause memory pressure.
// Balanced: one job each. Unbalanced: SPU 2 runs two jobs.
func RunMemIso() MemIsoResult {
	res := MemIsoResult{
		Balanced:   make(map[core.Scheme]MemIsoRun),
		Unbalanced: make(map[core.Scheme]MemIsoRun),
	}
	for _, scheme := range Schemes {
		res.Balanced[scheme] = runMemIsoConfig(scheme, false, &res.Meter)
		res.Unbalanced[scheme] = runMemIsoConfig(scheme, true, &res.Meter)
	}
	res.BaseSMP = res.Balanced[core.SMP].SPU1
	return res
}

func runMemIsoConfig(scheme core.Scheme, unbalanced bool, m *Meter) MemIsoRun {
	r := scenario.Execute(scenario.Fig7(scheme,
		kernel.Options{MetricsPeriod: metricsPeriod, Profiled: true}, unbalanced))
	config := scheme.String() + "/balanced"
	if unbalanced {
		config = scheme.String() + "/unbalanced"
	}
	m.observe(r.Kernel, config)
	return MemIsoRun{SPU1: r.Procs[0].ResponseTime(), SPU2: r.Mean(onSPU(1))}
}

// IsolationRows returns Figure 7's lower graph: SPU 1's normalized
// response in the balanced and unbalanced configurations per scheme.
func (r MemIsoResult) IsolationRows() []struct {
	Scheme               core.Scheme
	Balanced, Unbalanced float64
} {
	out := make([]struct {
		Scheme               core.Scheme
		Balanced, Unbalanced float64
	}, 0, len(Schemes))
	for _, s := range Schemes {
		out = append(out, struct {
			Scheme               core.Scheme
			Balanced, Unbalanced float64
		}{s, Norm(r.Balanced[s].SPU1, r.BaseSMP), Norm(r.Unbalanced[s].SPU1, r.BaseSMP)})
	}
	return out
}

// SharingRows returns Figure 7's upper graph: SPU 2's normalized
// response (two jobs, unbalanced) per scheme, against its balanced
// baseline.
func (r MemIsoResult) SharingRows() []struct {
	Scheme               core.Scheme
	Balanced, Unbalanced float64
} {
	out := make([]struct {
		Scheme               core.Scheme
		Balanced, Unbalanced float64
	}, 0, len(Schemes))
	base := r.Balanced[core.SMP].SPU2
	for _, s := range Schemes {
		out = append(out, struct {
			Scheme               core.Scheme
			Balanced, Unbalanced float64
		}{s, Norm(r.Balanced[s].SPU2, base), Norm(r.Unbalanced[s].SPU2, base)})
	}
	return out
}

// Table renders Figure 7 (both graphs) as text tables.
func (r MemIsoResult) Table() *stats.Table {
	t := stats.NewTable(
		"Figure 7: memory isolation workload (normalized response times)",
		"Graph", "Scheme", "Balanced", "Unbalanced")
	for _, row := range r.SharingRows() {
		t.Addf("sharing (SPU2)", row.Scheme.String(), row.Balanced, row.Unbalanced)
	}
	for _, row := range r.IsolationRows() {
		t.Addf("isolation (SPU1)", row.Scheme.String(), row.Balanced, row.Unbalanced)
	}
	return t
}
