package experiment

import (
	"bytes"
	"io"

	"perfiso/internal/artifact"
	"perfiso/internal/kernel"
)

// TenantLatency is one tenant's tail-latency profile from a kernel's
// latency registry: request counts (censored in-flight requests called
// out), the percentile ladder, and SLO attainment. All durations are
// integer simulated nanoseconds, so the same run always summarizes to
// the same bytes.
type TenantLatency struct {
	Name     string `json:"name"`
	SPU      int    `json:"spu"`
	Count    int64  `json:"count"`
	Censored int64  `json:"censored"`
	Shed     int64  `json:"shed,omitempty"`
	MeanNS   int64  `json:"mean_ns"`
	P50NS    int64  `json:"p50_ns"`
	P99NS    int64  `json:"p99_ns"`
	P999NS   int64  `json:"p999_ns"`
	MaxNS    int64  `json:"max_ns"`
	// SLO fields: zero/absent when the tenant declared no objective.
	SLOThresholdNS int64   `json:"slo_threshold_ns,omitempty"`
	SLOTarget      float64 `json:"slo_target,omitempty"`
	Attainment     float64 `json:"attainment,omitempty"`
	BudgetBurn     float64 `json:"budget_burn,omitempty"`
}

// LatencySummary is one experiment configuration's latency registry
// distilled: one TenantLatency per registered stream, in registration
// order.
type LatencySummary struct {
	// Config names the run within its experiment, e.g. "PIso" or
	// "solo/web".
	Config string `json:"config"`
	// Tenants is one entry per latency stream, registration order.
	Tenants []TenantLatency `json:"tenants"`

	// jsonl holds the run's full latency export (summary, SLO, and
	// window timeline lines) for the latency.jsonl artifact; unexported
	// so bench JSON stays a summary.
	jsonl string
}

// Tenant returns the named tenant's profile, or nil.
func (s LatencySummary) Tenant(name string) *TenantLatency {
	for i := range s.Tenants {
		if s.Tenants[i].Name == name {
			return &s.Tenants[i]
		}
	}
	return nil
}

// summarizeLatency distills a finished kernel's latency registry. ok is
// false when the kernel ran without latency tracking or recorded
// nothing.
func summarizeLatency(k *kernel.Kernel, config string) (LatencySummary, bool) {
	reg := k.Latency()
	if reg == nil || reg.Empty() {
		return LatencySummary{}, false
	}
	s := LatencySummary{Config: config}
	for _, tr := range reg.Trackers() {
		h := tr.Total()
		if h.Count() == 0 {
			continue
		}
		tl := TenantLatency{
			Name: tr.Name, SPU: int(tr.SPU),
			Count: h.Count(), Censored: tr.Censored(), Shed: tr.Shed(),
			MeanNS: h.Mean(),
			P50NS:  h.Quantile(0.50), P99NS: h.Quantile(0.99),
			P999NS: h.Quantile(0.999), MaxNS: h.Max(),
		}
		if tr.Obj.Valid() {
			tl.SLOThresholdNS = int64(tr.Obj.Threshold)
			tl.SLOTarget = tr.Obj.Target
			tl.Attainment = tr.Attainment()
			tl.BudgetBurn = tr.BudgetBurn()
		}
		s.Tenants = append(s.Tenants, tl)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSONL(&buf); err == nil {
		s.jsonl = buf.String()
	}
	return s, true
}

// LatencyJSONL writes the per-experiment latency artifact: for every
// configuration that ran with latency tracking on, one "experiment"
// header line followed by that run's full latency export (the lines of
// pisosim's latency.jsonl). Results appear in registry order and
// every duration is integer simulated nanoseconds, so the artifact is
// byte-identical at any -parallel level and on either event-queue
// implementation.
func LatencyJSONL(results []Result, w io.Writer) error {
	e := artifact.NewEncoder(w)
	for _, r := range results {
		for _, ls := range r.Output.Latency {
			experimentLine(e, r, ls.Config).Int("tenants", int64(len(ls.Tenants))).Line()
			if err := writeBlock(e, w, ls.jsonl); err != nil {
				return err
			}
		}
	}
	return e.Flush()
}
