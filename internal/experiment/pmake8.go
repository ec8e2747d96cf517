package experiment

import (
	"perfiso/internal/core"
	"perfiso/internal/kernel"
	"perfiso/internal/scenario"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
)

// Pmake8Run is one configuration's measurement: mean job response time
// in the lightly-loaded SPUs (1-4) and the heavily-loaded SPUs (5-8).
type Pmake8Run struct {
	Light sim.Time // SPUs 1-4 mean job response
	Heavy sim.Time // SPUs 5-8 mean job response
}

// Pmake8Result carries Figures 2 and 3: per scheme, the balanced and
// unbalanced runs.
type Pmake8Result struct {
	Meter
	Balanced   map[core.Scheme]Pmake8Run
	Unbalanced map[core.Scheme]Pmake8Run
	// BaseSMP is the normalization base: SMP mean response in the
	// balanced configuration (Figure 2's "100").
	BaseSMP sim.Time
}

// RunPmake8 executes the Pmake8 workload (Figure 1's balanced and
// unbalanced job distributions) under all three schemes.
func RunPmake8() Pmake8Result {
	res := Pmake8Result{
		Balanced:   make(map[core.Scheme]Pmake8Run),
		Unbalanced: make(map[core.Scheme]Pmake8Run),
	}
	for _, scheme := range Schemes {
		res.Balanced[scheme] = runPmake8Config(scheme, false, &res.Meter)
		res.Unbalanced[scheme] = runPmake8Config(scheme, true, &res.Meter)
	}
	res.BaseSMP = res.Balanced[core.SMP].Light
	return res
}

// runPmake8Config boots one kernel and runs one job distribution.
// Balanced: one pmake job per SPU (8 jobs). Unbalanced: SPUs 5-8 run two
// jobs each (12 jobs).
func runPmake8Config(scheme core.Scheme, unbalanced bool, m *Meter) Pmake8Run {
	heavy, config := 1, scheme.String()+"/balanced"
	if unbalanced {
		heavy, config = 2, scheme.String()+"/unbalanced"
	}
	r := scenario.Execute(scenario.Pmake8(scheme, kernel.Options{Profiled: true}, "spu", heavy))
	m.observe(r.Kernel, config)
	return Pmake8Run{
		Light: r.Mean(func(j scenario.Job) bool { return j.SPU < 4 }),
		Heavy: r.Mean(func(j scenario.Job) bool { return j.SPU >= 4 }),
	}
}

// Fig2Rows returns Figure 2's bars: per scheme, the normalized response
// time of the lightly-loaded SPUs in the balanced (B) and unbalanced (U)
// configurations (SMP balanced = 100).
func (r Pmake8Result) Fig2Rows() []struct {
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
		}{s, Norm(r.Balanced[s].Light, r.BaseSMP), Norm(r.Unbalanced[s].Light, r.BaseSMP)})
	}
	return out
}

// Fig3Rows returns Figure 3's bars: per scheme, the normalized response
// time of the heavily-loaded SPUs (5-8) in the unbalanced configuration.
func (r Pmake8Result) Fig3Rows() []struct {
	Scheme core.Scheme
	Heavy  float64
} {
	out := make([]struct {
		Scheme core.Scheme
		Heavy  float64
	}, 0, len(Schemes))
	for _, s := range Schemes {
		out = append(out, struct {
			Scheme core.Scheme
			Heavy  float64
		}{s, Norm(r.Unbalanced[s].Heavy, r.BaseSMP)})
	}
	return out
}

// Fig2Table renders Figure 2 as a text table.
func (r Pmake8Result) Fig2Table() *stats.Table {
	t := stats.NewTable(
		"Figure 2: Pmake8 isolation — response time of lightly-loaded SPUs 1-4\n"+
			"(normalized to SMP balanced = 100)",
		"Scheme", "Balanced", "Unbalanced")
	for _, row := range r.Fig2Rows() {
		t.Addf(row.Scheme.String(), row.Balanced, row.Unbalanced)
	}
	return t
}

// Fig3Table renders Figure 3 as a text table.
func (r Pmake8Result) Fig3Table() *stats.Table {
	t := stats.NewTable(
		"Figure 3: Pmake8 sharing — response time of heavily-loaded SPUs 5-8,\n"+
			"unbalanced configuration (normalized to SMP balanced = 100)",
		"Scheme", "Unbalanced")
	for _, row := range r.Fig3Rows() {
		t.Addf(row.Scheme.String(), row.Heavy)
	}
	return t
}
