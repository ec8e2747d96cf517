package experiment

import (
	"perfiso/internal/core"
	"perfiso/internal/stats"
)

// CompareRow is one headline quantity of the paper's evaluation set
// against the value this reproduction measures.
type CompareRow struct {
	Experiment string
	Metric     string
	Paper      float64
	Measured   float64
	Unit       string
}

// Comparison is the paper-vs-measured summary (the machine-generated
// core of EXPERIMENTS.md).
type Comparison struct {
	Meter
	Rows []CompareRow
}

// RunComparison executes the figures and tables and extracts the
// quantities the paper states explicitly, pairing each with its paper
// value. Absolute seconds are not comparable across substrates, so
// every quantity here is a normalized percentage or a ratio.
func RunComparison() Comparison {
	var c Comparison
	add := func(exp, metric string, paper, measured float64, unit string) {
		c.Rows = append(c.Rows, CompareRow{exp, metric, paper, measured, unit})
	}

	p := RunPmake8()
	fig2 := map[core.Scheme][2]float64{}
	for _, r := range p.Fig2Rows() {
		fig2[r.Scheme] = [2]float64{r.Balanced, r.Unbalanced}
	}
	// "The response time for the jobs in SPUs 1-4 increases by 56%".
	add("fig2", "SMP light SPUs, unbalanced (norm)", 156, fig2[core.SMP][1], "%")
	add("fig2", "PIso light SPUs, unbalanced (norm)", 100, fig2[core.PIso][1], "%")
	for _, r := range p.Fig3Rows() {
		switch r.Scheme {
		case core.SMP:
			add("fig3", "SMP heavy SPUs (norm)", 156, r.Heavy, "%")
		case core.Quo:
			// "Quo increases the response time for these jobs by 87%".
			add("fig3", "Quo heavy SPUs (norm)", 187, r.Heavy, "%")
		case core.PIso:
			add("fig3", "PIso heavy SPUs (norm)", 146, r.Heavy, "%")
		}
	}

	m := RunMemIso()
	for _, r := range m.IsolationRows() {
		if r.Scheme == core.SMP {
			// "a 45% decrease" for SMP vs "13%" for PIso.
			add("fig7", "SMP SPU1, unbalanced (norm)", 145, r.Unbalanced, "%")
		}
		if r.Scheme == core.PIso {
			add("fig7", "PIso SPU1, unbalanced (norm)", 113, r.Unbalanced, "%")
		}
	}
	for _, r := range m.SharingRows() {
		if r.Scheme == core.Quo {
			// "145% decrease in performance compared to the balanced
			// configuration".
			add("fig7", "Quo SPU2, unbalanced (norm)", 245, r.Unbalanced, "%")
		}
	}

	t3 := RunTable3()
	pos, piso := t3.Row("Pos"), t3.Row("PIso")
	if pos != nil && piso != nil {
		// "significantly reduces the response time for the pmake (39%)".
		add("tab3", "PIso pmake response vs Pos", -39,
			100*(float64(piso.RespA)/float64(pos.RespA)-1), "%")
		// "the average time a request spends waiting ... decreases by 76%".
		add("tab3", "PIso pmake wait vs Pos", -76,
			100*(float64(piso.WaitA)/float64(pos.WaitA)-1), "%")
		// "The copy job ... does see a reduction in performance (23%)".
		add("tab3", "PIso copy response vs Pos", 23,
			100*(float64(piso.RespB)/float64(pos.RespB)-1), "%")
	}
	iso3 := t3.Row("Iso")
	if pos != nil && iso3 != nil {
		// Iso 8.2 ms vs Pos 6.4 ms avg latency in Table 4; Table 3 text
		// says Iso performs like PIso. We compare latency inflation.
		add("tab3", "Iso avg latency vs Pos", 28,
			100*(float64(iso3.AvgLatency)/float64(pos.AvgLatency)-1), "%")
	}

	t4 := RunTable4()
	p4, i4, pi4 := t4.Row("Pos"), t4.Row("Iso"), t4.Row("PIso")
	if p4 != nil && i4 != nil && pi4 != nil {
		// Paper values: small 0.93/0.56/0.28 s under Pos/Iso/PIso.
		add("tab4", "small copy: Pos / PIso response ratio", 0.93/0.28,
			float64(p4.RespA)/float64(pi4.RespA), "x")
		add("tab4", "small copy: Iso / PIso response ratio", 0.56/0.28,
			float64(i4.RespA)/float64(pi4.RespA), "x")
		// Big copy: 0.81/1.22/0.96 s.
		add("tab4", "big copy: Iso / PIso response ratio", 1.22/0.96,
			float64(i4.RespB)/float64(pi4.RespB), "x")
		// Wait-time reductions Iso -> PIso: 54% small, 30% big.
		add("tab4", "PIso small wait vs Iso", -54,
			100*(float64(pi4.WaitA)/float64(i4.WaitA)-1), "%")
		add("tab4", "PIso big wait vs Iso", -30,
			100*(float64(pi4.WaitB)/float64(i4.WaitB)-1), "%")
	}
	c.Events = p.Events + m.Events + t3.Events + t4.Events
	return c
}

// Table renders the comparison.
func (c Comparison) Table() *stats.Table {
	t := stats.NewTable(
		"Paper vs measured — the quantities the paper states explicitly\n"+
			"(normalized percentages and ratios; absolute seconds are not comparable)",
		"Exp", "Metric", "Paper", "Ours")
	for _, r := range c.Rows {
		t.Addf(r.Experiment, r.Metric,
			formatQty(r.Paper, r.Unit), formatQty(r.Measured, r.Unit))
	}
	return t
}

func formatQty(v float64, unit string) string {
	if unit == "x" {
		return stats.FormatRatio(v)
	}
	return stats.FormatPercent(v)
}
