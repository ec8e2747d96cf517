package experiment

import (
	"bytes"
	"fmt"
	"io"

	"perfiso/internal/artifact"
	"perfiso/internal/control"
	"perfiso/internal/core"
	"perfiso/internal/fault"
	"perfiso/internal/kernel"
	"perfiso/internal/machine"
	"perfiso/internal/scenario"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
	"perfiso/internal/workload"
)

// sloNoiseHogs is how many compute antagonists the noise SPU runs in
// the controller experiment — enough threads that thread-level fair
// sharing (SMP) hands the noise SPU most of the machine. sloNoiseWork
// oversizes each hog's demand past the horizon so noise pressure never
// lets up, and sloHorizon fixes the observation window: every config
// runs the same simulated span, so the frontier's utilization and
// noise-CPU columns are directly comparable.
const (
	sloNoiseHogs = 64
	sloNoiseWork = 200 * sim.Second
	sloHorizon   = 40 * sim.Second
)

// sloFaultPlan composes the two hardware faults the controller must
// ride out: the search tenant's data disk degrades 6x mid-run (which
// also trips that disk's circuit breaker), and two CPUs go offline
// across the middle of the run, shrinking every static entitlement
// right as the diurnal peaks wash through.
const sloFaultPlan = "disk-slow:2:14s:8s:6,cpu-off:6:9s:18s,cpu-off:7:9s:18s"

// SLOControllerRow is one (config, tenant) cell of the controller
// comparison: the tail, the SLO verdict, and how many requests
// admission control shed.
type SLOControllerRow struct {
	Config     string
	Tenant     string
	P99        sim.Time
	Attainment float64
	Target     float64 // SLO target in percent
	Shed       int64
	Met        bool
}

// SLOControllerConfig is one configuration's frontier point: SLOs held
// against machine utilization, plus the controller's activity when one
// ran.
type SLOControllerConfig struct {
	Config   string
	Held     int // tenants whose SLO was met
	Tenants  int
	Util     float64 // machine CPU utilization over the run, percent
	NoiseCPU float64 // CPU-seconds the noise SPU's hogs got
	Stats    control.Stats
}

// SLOControllerResult captures the closed-loop controller experiment:
// the same diurnal tenant mix and fault plan under SMP, static PIso,
// and PIso with the feedback controller, on the SLO-attainment-vs-
// utilization frontier.
type SLOControllerResult struct {
	Meter
	Rows    []SLOControllerRow
	Configs []SLOControllerConfig
}

// RunSLOController runs the controller experiment: four tenants with
// phase-shifted diurnal (and bursty) open arrivals plus a noise SPU of
// compute hogs, under a composed disk-slow + cpu-off fault plan, on
// three configurations — SMP (no isolation), static PIso (the paper's
// kernel), and adaptive PIso (the closed-loop controller retuning
// entitlements from SLO burn). The claim under test: the controller
// holds every tenant's SLO through load shift and faults where the
// static split cannot, and pays for it with bounded noise throughput,
// not with lost isolation.
func RunSLOController() SLOControllerResult {
	var res SLOControllerResult
	tenants := workload.DiurnalTenantSet()

	run := func(scheme core.Scheme, adaptive bool, config string) {
		plan, err := fault.ParsePlan(sloFaultPlan)
		if err != nil {
			panic(err)
		}
		opts := kernel.Options{Faults: plan, Profiled: true, MetricsPeriod: metricsPeriod}
		if adaptive {
			opts.Control = control.Config{Enabled: true, Step: 0.5, Decay: 0.75, Hold: 6}
		}
		p := scenario.TenantMachine(scheme, opts, tenants, sloNoiseHogs,
			workload.ComputeParams{Total: sloNoiseWork, Chunk: 50 * sim.Millisecond, WSSPages: 50})
		p.Until = sloHorizon
		r := scenario.Execute(p)
		k, end, noise := r.Kernel, r.End, r.SPUs[len(tenants)]
		res.observe(k, config)

		cfgRow := SLOControllerConfig{Config: config, Tenants: len(tenants)}
		var busy float64
		for _, u := range k.SPUs().All() {
			busy += k.Scheduler().CPUTime(u.ID()).Seconds()
		}
		if secs := end.Seconds() * float64(machine.Pmake8().CPUs); secs > 0 {
			cfgRow.Util = 100 * busy / secs
		}
		cfgRow.NoiseCPU = k.Scheduler().CPUTime(noise.ID()).Seconds()
		if c := k.Controller(); c != nil {
			cfgRow.Stats = c.Stat
		}
		for i, ts := range tenants {
			tr := r.Servers[i].Tracker()
			attain := tr.Attainment()
			row := SLOControllerRow{
				Config: config, Tenant: ts.Name,
				P99:        sim.Time(tr.Total().Quantile(0.99)),
				Attainment: attain,
				Target:     ts.Server.SLO.Target * 100,
				Shed:       tr.Shed(),
				Met:        attain >= ts.Server.SLO.Target*100,
			}
			if row.Met {
				cfgRow.Held++
			}
			res.Rows = append(res.Rows, row)
		}
		res.Configs = append(res.Configs, cfgRow)
	}

	run(core.SMP, false, "SMP")
	run(core.PIso, false, "PIso-static")
	run(core.PIso, true, "PIso-adaptive")
	return res
}

// Row returns the row for a (config, tenant) pair, or nil.
func (r SLOControllerResult) Row(config, tenant string) *SLOControllerRow {
	for i := range r.Rows {
		if r.Rows[i].Config == config && r.Rows[i].Tenant == tenant {
			return &r.Rows[i]
		}
	}
	return nil
}

// Config returns the frontier point for a configuration, or nil.
func (r SLOControllerResult) Config(config string) *SLOControllerConfig {
	for i := range r.Configs {
		if r.Configs[i].Config == config {
			return &r.Configs[i]
		}
	}
	return nil
}

// Table renders the per-tenant SLO comparison.
func (r SLOControllerResult) Table() *stats.Table {
	t := stats.NewTable(
		"Extension: closed-loop SLO entitlement control (diurnal load shift + disk-slow/cpu-off faults, Pmake8)",
		"Config", "Tenant", "p99 (ms)", "Attain (%)", "Target (%)", "Shed", "SLO")
	for _, row := range r.Rows {
		verdict := "MISS"
		if row.Met {
			verdict = "met"
		}
		t.Addf(row.Config, row.Tenant, row.P99.Milliseconds(), row.Attainment,
			row.Target, row.Shed, verdict)
	}
	return t
}

// FrontierTable renders the SLO-attainment-vs-utilization frontier:
// one row per configuration with the SLOs it held, the machine
// utilization it reached, the noise CPU it preserved, and the
// controller activity that bought the difference.
func (r SLOControllerResult) FrontierTable() *stats.Table {
	t := stats.NewTable(
		"SLO-attainment vs utilization frontier",
		"Config", "SLOs held", "Util (%)", "Noise CPU (s)", "Retunes", "Boosts", "Shed", "Breaker trips")
	for _, c := range r.Configs {
		t.Addf(c.Config, fmt.Sprintf("%d/%d", c.Held, c.Tenants), c.Util, c.NoiseCPU,
			c.Stats.Retunes, c.Stats.Boosts, c.Stats.Shed, c.Stats.Trips)
	}
	return t
}

// ControllerSummary is one configuration's controller activity, with
// the full decision-log export embedded for the controller.jsonl
// artifact.
type ControllerSummary struct {
	// Config names the run within its experiment.
	Config string `json:"config"`
	// Stats are the controller's activity totals.
	Stats control.Stats `json:"stats"`

	// jsonl holds the run's full controller export (config header plus
	// one line per decision); unexported so bench JSON stays a summary.
	jsonl string
}

// summarizeController distills a finished kernel's controller. ok is
// false when the kernel ran without the closed loop.
func summarizeController(k *kernel.Kernel, config string) (ControllerSummary, bool) {
	c := k.Controller()
	if c == nil {
		return ControllerSummary{}, false
	}
	s := ControllerSummary{Config: config, Stats: c.Stat}
	var buf bytes.Buffer
	if err := k.WriteController(&buf); err == nil {
		s.jsonl = buf.String()
	}
	return s, true
}

// ControllerJSONL writes the per-experiment controller artifact: for
// every configuration that ran with the closed loop on, one
// "experiment" header line followed by that run's full decision-log
// export (the lines of pisosim's controller.jsonl). Deterministic at
// any -parallel level.
func ControllerJSONL(results []Result, w io.Writer) error {
	e := artifact.NewEncoder(w)
	for _, r := range results {
		for _, cs := range r.Output.Controller {
			experimentLine(e, r, cs.Config).Line()
			if err := writeBlock(e, w, cs.jsonl); err != nil {
				return err
			}
		}
	}
	return e.Flush()
}
