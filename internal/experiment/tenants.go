package experiment

import (
	"fmt"

	"perfiso/internal/core"
	"perfiso/internal/kernel"
	"perfiso/internal/machine"
	"perfiso/internal/profile"
	"perfiso/internal/scenario"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
	"perfiso/internal/workload"
)

// OpenArrivalTolerance bounds how far a tenant's shared-machine p99 may
// drift from its solo baseline under PIso before the experiment calls
// isolation broken. The bound is multiplicative with an additive slack
// (OpenArrivalSlack): solo runs own the whole machine, so concurrent
// requests fan out across idle CPUs, while a shared tenant is entitled
// to one CPU and queues overlapping arrivals there — bounded entitlement
// queueing that exists even under perfect isolation. The slack absorbs
// that fixed queueing term; the ratio catches noise-proportional
// collapse, which is what SMP exhibits.
const OpenArrivalTolerance = 1.5

// OpenArrivalSlack is the additive latency budget a shared tenant gets
// on top of OpenArrivalTolerance×solo: roughly the queueing delay of a
// couple of overlapping requests on the tenant's single entitled CPU.
const OpenArrivalSlack = 10 * sim.Millisecond

// OpenArrivalRow is one (config, tenant) cell of the multi-tenant
// open-arrival comparison: the percentile ladder, SLO attainment, and
// the p99 inflation over that tenant's solo baseline.
type OpenArrivalRow struct {
	Config     string
	Tenant     string
	P50        sim.Time
	P99        sim.Time
	P999       sim.Time
	Attainment float64
	Censored   int64
	// SoloRatio is P99 divided by the tenant's solo-baseline P99;
	// zero for the solo rows themselves.
	SoloRatio float64
}

// OpenArrivalResult captures the multi-tenant open-arrival experiment:
// four tenants with open (arrival-time-driven) request streams sharing
// a machine with a noise SPU full of compute hogs, under SMP and PIso,
// each compared against its own solo baseline. Worst names the tenant
// SMP hurt the most, and Breakdown is the profiler's interference
// matrix restricted to that victim — which culprit stole how much of
// which resource.
type OpenArrivalResult struct {
	Meter
	Rows       []OpenArrivalRow
	Worst      string
	WorstRatio float64
	Breakdown  []TheftRow
}

// RunOpenArrival runs the tail-latency isolation experiment: each
// tenant solo on the machine (its baseline), then all tenants plus the
// noise SPU under SMP and under PIso with IPI revocation (§3.1 — tick
// revocation alone would put a scheduler-tick quantum into every
// shared-machine tail).
func RunOpenArrival() OpenArrivalResult {
	var res OpenArrivalResult
	tenants := workload.TenantSet()
	window := 500 * sim.Millisecond

	solo := make(map[string]TenantLatency)
	for i, ts := range tenants {
		r := scenario.Execute(scenario.Plan{
			Machine: machine.Pmake8(), Scheme: core.PIso,
			Options: kernel.Options{LatencyWindow: window, IPIRevoke: true},
			SPUs:    []scenario.SPU{{Name: ts.Name, Weight: ts.Weight}},
			Jobs:    []scenario.Job{{Name: ts.Name, Open: &tenants[i].Server}},
		})
		res.observe(r.Kernel, "solo/"+ts.Name)
		tl := res.Latency[len(res.Latency)-1].Tenant(ts.Name)
		solo[ts.Name] = *tl
		res.Rows = append(res.Rows, openArrivalRow("solo", *tl, 0))
	}

	shared := func(scheme core.Scheme, config string) (LatencySummary, []profile.Theft, map[int]string) {
		r := scenario.Execute(scenario.Tenants(scheme, kernel.Options{LatencyWindow: window, Profiled: true}))
		res.observe(r.Kernel, config)
		names := make(map[int]string)
		for _, u := range r.Kernel.SPUs().All() {
			names[int(u.ID())] = u.Name()
		}
		return res.Latency[len(res.Latency)-1], r.Kernel.Profile().Interference(), names
	}

	smp, smpTheft, smpNames := shared(core.SMP, "SMP")
	piso, _, _ := shared(core.PIso, "PIso")

	var worstSPU core.SPUID
	for _, sum := range []LatencySummary{smp, piso} {
		for _, ts := range tenants {
			tl := sum.Tenant(ts.Name)
			if tl == nil {
				continue
			}
			ratio := 0.0
			if base := solo[ts.Name].P99NS; base > 0 {
				ratio = float64(tl.P99NS) / float64(base)
			}
			res.Rows = append(res.Rows, openArrivalRow(sum.Config, *tl, ratio))
			if sum.Config == "SMP" && ratio > res.WorstRatio {
				res.Worst, res.WorstRatio = ts.Name, ratio
				worstSPU = core.SPUID(tl.SPU)
			}
		}
	}

	for _, t := range smpTheft {
		if t.Victim != worstSPU {
			continue
		}
		res.Breakdown = append(res.Breakdown, TheftRow{
			Victim:   spuDisplay(smpNames, t.Victim),
			Culprit:  spuDisplay(smpNames, t.Culprit),
			Resource: t.Resource.String(),
			Stolen:   int64(t.Stolen),
		})
	}
	return res
}

func openArrivalRow(config string, tl TenantLatency, ratio float64) OpenArrivalRow {
	return OpenArrivalRow{
		Config: config, Tenant: tl.Name,
		P50: sim.Time(tl.P50NS), P99: sim.Time(tl.P99NS), P999: sim.Time(tl.P999NS),
		Attainment: tl.Attainment, Censored: tl.Censored, SoloRatio: ratio,
	}
}

// Row returns the row for a (config, tenant) pair, or nil.
func (r OpenArrivalResult) Row(config, tenant string) *OpenArrivalRow {
	for i := range r.Rows {
		if r.Rows[i].Config == config && r.Rows[i].Tenant == tenant {
			return &r.Rows[i]
		}
	}
	return nil
}

// Table renders the per-tenant percentile and SLO comparison.
func (r OpenArrivalResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Extension: multi-tenant open-arrival tail latency (%d tenants vs %d noise hogs, Pmake8)",
			len(workload.TenantSet()), scenario.TenantHogs),
		"Config", "Tenant", "p50 (ms)", "p99 (ms)", "p999 (ms)", "Attain (%)", "Censored", "p99 vs solo")
	for _, row := range r.Rows {
		ratio := "-"
		if row.SoloRatio > 0 {
			ratio = fmt.Sprintf("%.2fx", row.SoloRatio)
		}
		t.Addf(row.Config, row.Tenant, row.P50.Milliseconds(), row.P99.Milliseconds(),
			row.P999.Milliseconds(), row.Attainment, row.Censored, ratio)
	}
	return t
}

// BreakdownTable renders the interference matrix restricted to the
// worst-hit tenant under SMP: one row per resource, totalled across
// culprits, with the largest single culprit named. Resources with no
// recorded theft still print, so a reader can see at a glance which of
// CPU, memory, disk, and locks the collapse came from.
func (r OpenArrivalResult) BreakdownTable() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Who hurt %q under SMP (victim-side interference, worst tenant)", r.Worst),
		"Resource", "Stolen (ms)", "Top culprit")
	for _, resource := range []string{"cpu", "memory", "disk", "lock"} {
		var total, top int64
		culprit := "-"
		for _, row := range r.Breakdown {
			if row.Resource != resource {
				continue
			}
			total += row.Stolen
			if row.Stolen > top {
				top, culprit = row.Stolen, row.Culprit
			}
		}
		t.Addf(resource, sim.Time(total).Milliseconds(), culprit)
	}
	return t
}
