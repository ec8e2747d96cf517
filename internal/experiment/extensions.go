package experiment

import (
	"fmt"

	"perfiso/internal/core"
	"perfiso/internal/kernel"
	"perfiso/internal/machine"
	"perfiso/internal/scenario"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
	"perfiso/internal/workload"
)

// GangResult compares plain and gang-scheduled Ocean under SMP-style
// interference — the accommodation §3.1 says the base hybrid policy
// would need ("Accommodating gang-scheduled [Ous82] parallel
// applications would require some modifications").
type GangResult struct {
	Meter
	PlainOcean sim.Time // individually scheduled, with interference
	GangOcean  sim.Time // gang scheduled, same interference
	AloneOcean sim.Time // no interference (lower bound)
}

// RunAblationGang runs Ocean against six compute hogs in the same SPU
// under the SMP scheme (a single global runqueue, the worst case for a
// barrier-synchronized gang), with and without gang scheduling.
func RunAblationGang() GangResult {
	var res GangResult
	run := func(gang, interference bool) sim.Time {
		ocean := workload.DefaultOcean()
		ocean.GangScheduled = gang
		hog := workload.ComputeParams{Total: 6 * sim.Second, Chunk: 100 * sim.Millisecond, WSSPages: 50}
		p := scenario.Plan{
			Machine: machine.CPUIsolation(), Scheme: core.SMP, Options: kernel.Options{Profiled: true},
			SPUs: []scenario.SPU{{Name: "all"}},
			Jobs: []scenario.Job{{Name: "ocean", Ocean: &ocean}},
		}
		if interference {
			for i := 0; i < 6; i++ {
				p.Jobs = append(p.Jobs, scenario.Job{Name: fmt.Sprintf("hog%d", i), Compute: &hog})
			}
		}
		r := scenario.Execute(p)
		res.observe(r.Kernel, fmt.Sprintf("gang=%t/interference=%t", gang, interference))
		return r.Procs[0].ResponseTime()
	}
	res.PlainOcean = run(false, true)
	res.GangOcean = run(true, true)
	res.AloneOcean = run(false, false)
	return res
}

// Table renders the gang-scheduling comparison.
func (r GangResult) Table() *stats.Table {
	t := stats.NewTable(
		"Ablation: gang scheduling (§3.1 accommodation, Ocean + 6 hogs, SMP)",
		"Configuration", "Ocean resp (s)")
	t.Addf("individually scheduled", r.PlainOcean.Seconds())
	t.Addf("gang scheduled", r.GangOcean.Seconds())
	t.Addf("no interference (bound)", r.AloneOcean.Seconds())
	return t
}

// ServerLatencyResult captures response-time isolation for an
// interactive service against a batch SPU, across schemes and
// revocation mechanisms — the concern behind §3.1's IPI suggestion.
type ServerLatencyResult struct {
	Meter
	Rows []ServerLatencyRow
}

// ServerLatencyRow is one configuration's latency profile. Completed
// and Censored make the sample's coverage explicit: a config that
// strands requests in flight past the run's end cannot hide them.
type ServerLatencyRow struct {
	Config    string
	Mean      sim.Time
	Max       sim.Time
	Completed int
	Censored  int
}

// RunServerLatency measures the service's request latencies under SMP,
// Quo, PIso with tick revocation, and PIso with IPI revocation.
func RunServerLatency() ServerLatencyResult {
	var res ServerLatencyResult
	run := func(scheme core.Scheme, ipi bool) ServerLatencyRow {
		svc := workload.DefaultServer()
		hog := workload.ComputeParams{Total: 20 * sim.Second, Chunk: 100 * sim.Millisecond, WSSPages: 50}
		p := scenario.Plan{
			Machine: machine.CPUIsolation(), Scheme: scheme,
			Options: kernel.Options{IPIRevoke: ipi, Profiled: true},
			SPUs:    []scenario.SPU{{Name: "service"}, {Name: "batch"}},
			Jobs:    []scenario.Job{{Name: "svc", Server: &svc}},
		}
		for i := 0; i < 16; i++ {
			p.Jobs = append(p.Jobs, scenario.Job{SPU: 1, Name: fmt.Sprintf("b%d", i), Compute: &hog})
		}
		r := scenario.Execute(p)
		res.observe(r.Kernel, fmt.Sprintf("%s/ipi=%t", scheme, ipi))
		job, end := r.Servers[0], r.End
		lat := job.Latencies(end)
		return ServerLatencyRow{
			Mean: sim.FromSeconds(lat.Mean()), Max: job.MaxLatency(end),
			Completed: job.Completed(), Censored: job.InFlight(),
		}
	}
	configs := []struct {
		name   string
		scheme core.Scheme
		ipi    bool
	}{
		{"SMP", core.SMP, false},
		{"Quo", core.Quo, false},
		{"PIso-tick", core.PIso, false},
		{"PIso-IPI", core.PIso, true},
	}
	for _, c := range configs {
		row := run(c.scheme, c.ipi)
		row.Config = c.name
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Row returns the row for a config name, or nil.
func (r ServerLatencyResult) Row(name string) *ServerLatencyRow {
	for i := range r.Rows {
		if r.Rows[i].Config == name {
			return &r.Rows[i]
		}
	}
	return nil
}

// Table renders the latency comparison.
func (r ServerLatencyResult) Table() *stats.Table {
	t := stats.NewTable(
		"Extension: interactive response-time isolation (2 ms requests vs 16 batch hogs)",
		"Config", "Mean latency (ms)", "Max latency (ms)", "Completed", "Censored")
	for _, row := range r.Rows {
		t.Addf(row.Config, row.Mean.Milliseconds(), row.Max.Milliseconds(),
			row.Completed, row.Censored)
	}
	return t
}

// AffinityResult captures §3.1's cache-pollution discussion: lending
// CPUs pollutes the lender's caches, and a rate-limited sharing policy
// ("preventing frequent reallocation of CPUs") recovers most of the
// loss at a modest cost to the borrowers.
type AffinityResult struct {
	Meter
	Rows []AffinityRow
}

// AffinityRow is one configuration of the cache model and loan limiter.
type AffinityRow struct {
	Config      string
	Ocean       sim.Time
	Eda         sim.Time // mean Flashlite+VCS response
	Loans       int64
	Revocations int64
}

// RunAblationAffinity runs the Fig 5 workload under PIso with the cache
// model off, on, and on with the loan rate limiter.
func RunAblationAffinity() AffinityResult {
	var res AffinityResult
	run := func(name string, reload, minLoan sim.Time) AffinityRow {
		r := scenario.Execute(scenario.Fig5(core.PIso, kernel.Options{
			CacheReload: reload, MinLoanInterval: minLoan, Profiled: true,
		}, "fl"))
		res.observe(r.Kernel, name)
		return AffinityRow{
			Config:      name,
			Ocean:       r.Procs[0].ResponseTime(),
			Eda:         r.Mean(onSPU(1)),
			Loans:       r.Kernel.Scheduler().Stat.Loans,
			Revocations: r.Kernel.Scheduler().Stat.Revocations,
		}
	}
	res.Rows = []AffinityRow{
		run("no cache model", 0, 0),
		run("cache reload 1ms", sim.Millisecond, 0),
		run("reload + loan limiter", sim.Millisecond, 300*sim.Millisecond),
	}
	return res
}

// Row returns the row for a config name, or nil.
func (r AffinityResult) Row(name string) *AffinityRow {
	for i := range r.Rows {
		if r.Rows[i].Config == name {
			return &r.Rows[i]
		}
	}
	return nil
}

// Table renders the cache-affinity comparison.
func (r AffinityResult) Table() *stats.Table {
	t := stats.NewTable(
		"Ablation: cache pollution and loan rate limiting (§3.1, CPU workload, PIso)",
		"Config", "Ocean resp (s)", "Eda mean resp (s)", "Loans", "Revocations")
	for _, row := range r.Rows {
		t.Addf(row.Config, row.Ocean.Seconds(), row.Eda.Seconds(), row.Loans, row.Revocations)
	}
	return t
}

// PageInsertResult is the §3.4 page-insert-lock granularity comparison.
type PageInsertResult struct {
	Meter
	CoarseResp  sim.Time // makespan with 1 stripe
	StripedResp sim.Time // makespan with the fixed kernel's striping
	CoarseWait  sim.Time // total lock queueing, coarse
	StripedWait sim.Time
}

// RunAblationPageInsert runs a cache-insert-heavy workload (many
// concurrent cold reads) under both lock granularities, with the hold
// time raised so the serialization is visible at this machine scale.
func RunAblationPageInsert() PageInsertResult {
	var res PageInsertResult
	run := func(stripes int) (sim.Time, sim.Time) {
		params := workload.DefaultPmake()
		r := scenario.Boot(eachOfEight(kernel.Options{PageInsertStripes: stripes, Profiled: true},
			scenario.Job{Name: "pmake", Pmake: &params}))
		r.Kernel.FS().PageInsertHold = 500 * sim.Microsecond
		r.Start()
		end := r.Finish()
		res.observe(r.Kernel, fmt.Sprintf("stripes=%d", stripes))
		_, wait := r.Kernel.FS().PageInsertContention()
		return end, wait
	}
	res.CoarseResp, res.CoarseWait = run(1)
	res.StripedResp, res.StripedWait = run(0) // default striping
	return res
}

// Table renders the page-insert-lock comparison.
func (r PageInsertResult) Table() *stats.Table {
	t := stats.NewTable(
		"Ablation: page-insert-lock granularity (§3.4, Pmake8 balanced)",
		"Lock", "Makespan (s)", "Total lock wait (ms)")
	t.Addf("coarse (1 stripe)", r.CoarseResp.Seconds(), r.CoarseWait.Milliseconds())
	t.Addf("striped (fixed kernel)", r.StripedResp.Seconds(), r.StripedWait.Milliseconds())
	return t
}
