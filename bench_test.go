package perfiso

// One benchmark per table/figure of the paper's evaluation plus one per
// ablation, regenerating the corresponding experiment each iteration.
// Beyond ns/op, each bench reports the experiment's headline quantity
// as a custom metric so `go test -bench` output doubles as a compact
// reproduction summary:
//
//	go test -bench=. -benchmem
//
// (cmd/pisobench prints the full tables.)

import (
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/experiment"
)

// BenchmarkFig2Pmake8Isolation regenerates Figure 2: response time of
// the lightly-loaded SPUs, balanced vs unbalanced. Reported metric:
// SMP's unbalanced normalized response (the isolation failure; ~156 in
// the paper) and PIso's (~100).
func BenchmarkFig2Pmake8Isolation(b *testing.B) {
	var r experiment.Pmake8Result
	for i := 0; i < b.N; i++ {
		r = experiment.RunPmake8()
	}
	for _, row := range r.Fig2Rows() {
		switch row.Scheme {
		case core.SMP:
			b.ReportMetric(row.Unbalanced, "SMP_light_U_pct")
		case core.PIso:
			b.ReportMetric(row.Unbalanced, "PIso_light_U_pct")
		}
	}
}

// BenchmarkFig3Pmake8Sharing regenerates Figure 3: heavy SPUs in the
// unbalanced run. Paper: SMP 156, Quo 187, PIso 146.
func BenchmarkFig3Pmake8Sharing(b *testing.B) {
	var r experiment.Pmake8Result
	for i := 0; i < b.N; i++ {
		r = experiment.RunPmake8()
	}
	for _, row := range r.Fig3Rows() {
		b.ReportMetric(row.Heavy, row.Scheme.String()+"_heavy_pct")
	}
}

// BenchmarkFig5CPUIsolation regenerates Figure 5. Paper shape: Ocean
// improves under Quo/PIso; Flashlite and VCS suffer under Quo and stay
// near SMP under PIso.
func BenchmarkFig5CPUIsolation(b *testing.B) {
	var r experiment.CPUIsoResult
	for i := 0; i < b.N; i++ {
		r = experiment.RunCPUIso()
	}
	for _, row := range r.Rows() {
		b.ReportMetric(row.PIso, row.App+"_PIso_pct")
	}
}

// BenchmarkFig7MemoryIsolation regenerates Figure 7. Paper: SPU1 under
// SMP degrades ~45%; SPU2 under Quo costs ~245 while PIso lands near
// SMP.
func BenchmarkFig7MemoryIsolation(b *testing.B) {
	var r experiment.MemIsoResult
	for i := 0; i < b.N; i++ {
		r = experiment.RunMemIso()
	}
	for _, row := range r.SharingRows() {
		b.ReportMetric(row.Unbalanced, row.Scheme.String()+"_spu2_U_pct")
	}
}

// BenchmarkTable3PmakeCopy regenerates Table 3. Paper: PIso cuts the
// pmake's response 39% and its per-request wait 76% vs Pos, costing the
// copy ~23%.
func BenchmarkTable3PmakeCopy(b *testing.B) {
	var r experiment.DiskResult
	for i := 0; i < b.N; i++ {
		r = experiment.RunTable3()
	}
	for _, row := range r.Rows {
		b.ReportMetric(row.RespA.Seconds(), row.Policy+"_pmk_s")
	}
}

// BenchmarkTable4BigSmallCopy regenerates Table 4. Paper: PIso beats
// Iso for both copies while keeping Pos-like positioning latency.
func BenchmarkTable4BigSmallCopy(b *testing.B) {
	var r experiment.DiskResult
	for i := 0; i < b.N; i++ {
		r = experiment.RunTable4()
	}
	for _, row := range r.Rows {
		b.ReportMetric(row.RespA.Seconds(), row.Policy+"_small_s")
		b.ReportMetric(row.AvgLatency.Milliseconds(), row.Policy+"_poslat_ms")
	}
}

// BenchmarkAblationBWThreshold sweeps the §3.3 fairness threshold.
func BenchmarkAblationBWThreshold(b *testing.B) {
	var r experiment.BWThresholdResult
	for i := 0; i < b.N; i++ {
		r = experiment.RunAblationBWThreshold([]float64{1, 256, 1 << 30})
	}
	b.ReportMetric(r.Small.Points[0].Y, "small_at_rr_s")  // threshold 1
	b.ReportMetric(r.Small.Points[2].Y, "small_at_pos_s") // threshold 1<<30
}

// BenchmarkAblationReserve sweeps the §3.2 Reserve Threshold.
func BenchmarkAblationReserve(b *testing.B) {
	var r experiment.ReserveResult
	for i := 0; i < b.N; i++ {
		r = experiment.RunAblationReserve([]float64{0.02, 0.08, 0.25})
	}
	b.ReportMetric(r.SPU2.Points[1].Y, "borrower_at_8pct_s") // reserve 0.08
}

// BenchmarkAblationInodeLock compares the §3.4 lock granularities.
func BenchmarkAblationInodeLock(b *testing.B) {
	var r experiment.InodeLockResult
	for i := 0; i < b.N; i++ {
		r = experiment.RunAblationInodeLock()
	}
	b.ReportMetric(r.MutexResp.Seconds(), "mutex_makespan_s")
	b.ReportMetric(r.RWResp.Seconds(), "rw_makespan_s")
}

// BenchmarkAblationRevocation compares tick vs IPI revocation (§3.1).
func BenchmarkAblationRevocation(b *testing.B) {
	var r experiment.RevocationResult
	for i := 0; i < b.N; i++ {
		r = experiment.RunAblationRevocation()
	}
	b.ReportMetric(r.TickOcean.Seconds(), "tick_ocean_s")
	b.ReportMetric(r.IPIOcean.Seconds(), "ipi_ocean_s")
}

// BenchmarkAblationNetwork runs the §5 network-bandwidth extension.
func BenchmarkAblationNetwork(b *testing.B) {
	var r experiment.NetworkResult
	for i := 0; i < b.N; i++ {
		r = experiment.RunAblationNetwork()
	}
	b.ReportMetric(r.FCFSLight.Seconds(), "fcfs_light_s")
	b.ReportMetric(r.FairLight.Seconds(), "fair_light_s")
}

// BenchmarkAblationGang compares individually- vs gang-scheduled Ocean
// under interference (§3.1's accommodation).
func BenchmarkAblationGang(b *testing.B) {
	var r experiment.GangResult
	for i := 0; i < b.N; i++ {
		r = experiment.RunAblationGang()
	}
	b.ReportMetric(r.PlainOcean.Seconds(), "plain_ocean_s")
	b.ReportMetric(r.GangOcean.Seconds(), "gang_ocean_s")
}

// BenchmarkAblationPageInsert compares page-insert-lock granularities
// (§3.4).
func BenchmarkAblationPageInsert(b *testing.B) {
	var r experiment.PageInsertResult
	for i := 0; i < b.N; i++ {
		r = experiment.RunAblationPageInsert()
	}
	b.ReportMetric(r.CoarseResp.Seconds(), "coarse_makespan_s")
	b.ReportMetric(r.StripedResp.Seconds(), "striped_makespan_s")
}

// BenchmarkServerLatency measures interactive tail latency across
// schemes and revocation mechanisms.
func BenchmarkServerLatency(b *testing.B) {
	var r experiment.ServerLatencyResult
	for i := 0; i < b.N; i++ {
		r = experiment.RunServerLatency()
	}
	if row := r.Row("SMP"); row != nil {
		b.ReportMetric(row.Max.Milliseconds(), "smp_max_ms")
	}
	if row := r.Row("PIso-IPI"); row != nil {
		b.ReportMetric(row.Max.Milliseconds(), "piso_ipi_max_ms")
	}
}
