package experiment

import (
	"bytes"
	"io"
	"math"

	"perfiso/internal/artifact"
	"perfiso/internal/kernel"
	"perfiso/internal/latency"
	"perfiso/internal/metrics"
	"perfiso/internal/stats"
)

// metricsPeriod is the sampling period the instrumented experiments use
// when the caller did not pick one. Sampling only reads machine state,
// so turning it on never changes a single table cell.
const metricsPeriod = metrics.DefaultPeriod

// MetricSummary is one experiment configuration's headline isolation
// metrics, distilled from the kernel's metrics registry: how often the
// scheduler took loaned CPUs back, how long owners waited for them
// (the §3.1 revocation cost), and how the CPU time actually divided
// between the SPUs. Every field is simulation-derived and deterministic
// — no wall-clock value appears, so the same run always summarizes to
// the same bytes.
type MetricSummary struct {
	// Config names the run within its experiment, e.g. "PIso" or
	// "SMP/unbalanced".
	Config string `json:"config"`
	// Loans counts CPUs lent to SPUs beyond their entitlement.
	Loans int64 `json:"loans"`
	// Revocations counts loans the scheduler took back for an owner.
	Revocations int64 `json:"revocations"`
	// RevocationP99Ms is the 99th-percentile time an owner's thread
	// waited for a revoked CPU, in milliseconds (0 when no revocations).
	RevocationP99Ms float64 `json:"revocation_p99_ms"`
	// CPUShare is each user SPU's fraction of the total user CPU time.
	CPUShare map[string]float64 `json:"cpu_share"`

	// jsonl holds the run's full registry export for the metrics.jsonl
	// artifact; unexported so bench JSON stays a summary.
	jsonl string
}

// summarizeMetrics distills a finished kernel's registry. ok is false
// when the kernel ran without observability.
func summarizeMetrics(k *kernel.Kernel, config string) (MetricSummary, bool) {
	reg := k.Metrics()
	if reg == nil {
		return MetricSummary{}, false
	}
	s := MetricSummary{Config: config, CPUShare: make(map[string]float64)}
	for _, c := range reg.Counters() {
		switch c.Name {
		case metrics.KeySchedLoans:
			s.Loans += c.Value()
		case metrics.KeySchedRevocations:
			s.Revocations += c.Value()
		}
	}
	var lat []float64
	var spill *latency.Histogram
	for _, d := range reg.Distributions() {
		if d.Name != metrics.KeySchedRevokeLatency {
			continue
		}
		if d.Exact() {
			lat = append(lat, d.Values()...)
			continue
		}
		if spill == nil {
			spill = latency.New()
		}
		spill.Merge(d.Hist())
	}
	if spill != nil {
		// At least one distribution overflowed its exact cap: fold the
		// exact remainder into the bucketed view and answer from there.
		for _, v := range lat {
			spill.Record(int64(math.Round(v * metrics.DistScale)))
		}
		s.RevocationP99Ms = float64(spill.Quantile(0.99)) / metrics.DistScale * 1e3
	} else if len(lat) > 0 {
		s.RevocationP99Ms = stats.Quantile(lat, 0.99) * 1e3
	}
	var total float64
	sch := k.Scheduler()
	users := k.SPUs().Users()
	for _, u := range users {
		total += sch.CPUTime(u.ID()).Seconds()
	}
	for _, u := range users {
		sec := sch.CPUTime(u.ID()).Seconds()
		if total > 0 {
			s.CPUShare[u.Name()] = sec / total
		}
	}
	var buf bytes.Buffer
	if err := reg.WriteJSONL(&buf, k.MetricNames()); err == nil {
		s.jsonl = buf.String()
	}
	return s, true
}

// MetricsJSONL writes the per-experiment metrics artifact: for every
// instrumented configuration, one "experiment" header line carrying the
// summary, followed by that run's full registry export (the lines of
// pisosim's metrics.jsonl). Results appear in registry order and no
// wall-clock value is included, so the artifact is byte-identical at
// any -parallel level.
func MetricsJSONL(results []Result, w io.Writer) error {
	e := artifact.NewEncoder(w)
	for _, r := range results {
		for _, ms := range r.Output.Metrics {
			experimentLine(e, r, ms.Config).Int("loans", ms.Loans).Int("revocations", ms.Revocations).
				Float("revocation_p99_ms", ms.RevocationP99Ms).FloatMap("cpu_share", ms.CPUShare).Line()
			if err := writeBlock(e, w, ms.jsonl); err != nil {
				return err
			}
		}
	}
	return e.Flush()
}

// observe folds a finished kernel's dispatch total into the meter and,
// when the kernel ran with observability or profiling on, appends its
// metric and attribution summaries under the given configuration name.
func (m *Meter) observe(k *kernel.Kernel, config string) {
	m.count(k)
	if s, ok := summarizeMetrics(k, config); ok {
		m.Metrics = append(m.Metrics, s)
	}
	if s, ok := summarizeAttribution(k, config); ok {
		m.Attribution = append(m.Attribution, s)
	}
	if s, ok := summarizeLatency(k, config); ok {
		m.Latency = append(m.Latency, s)
	}
	if s, ok := summarizeController(k, config); ok {
		m.Controller = append(m.Controller, s)
	}
}
