package latency

import (
	"io"

	"perfiso/internal/artifact"
	"perfiso/internal/sim"
)

// WriteJSONL writes every tracker as deterministic JSONL: one
// "latency" summary line, an "slo" line when the tracker has an
// objective, then one "latency_window" line per non-empty timeline
// window. Trackers appear in registration order. Every value is either
// an integer nanosecond count or a ratio of deterministic integers, and
// no wall-clock value appears, so the same run always exports the same
// bytes at any harness parallelism. A no-op on a nil registry.
func (r *Registry) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	e := artifact.NewEncoder(w)
	for _, t := range r.trackers {
		h := t.total
		e.Begin().Str("type", "latency").Str("name", t.Name).Int("spu", int64(t.SPU)).
			Int("count", h.Count()).Int("censored", t.censored).
			Int("min_ns", h.Min()).Int("mean_ns", h.Mean()).
			Int("p50_ns", h.Quantile(0.50)).Int("p90_ns", h.Quantile(0.90)).
			Int("p99_ns", h.Quantile(0.99)).Int("p999_ns", h.Quantile(0.999)).
			Int("max_ns", h.Max()).Line()
		if t.Obj.Valid() {
			e.Begin().Str("type", "slo").Str("name", t.Name).Int("spu", int64(t.SPU)).
				Int("threshold_ns", int64(t.Obj.Threshold)).Float("target", t.Obj.Target).
				Int("good", t.good)
			if t.shed != 0 {
				e.Int("shed", t.shed)
			}
			e.Float("attainment", t.Attainment()).Float("budget_burn", t.BudgetBurn()).Line()
		}
		for i := range t.wins {
			if t.wins[i].busy() {
				writeWindow(e, t, t.windowStat(i))
			}
		}
	}
	return e.Flush()
}

// writeWindow writes one "latency_window" line.
func writeWindow(e *artifact.Encoder, t *Tracker, ws WindowStat) {
	e.Begin().Str("type", "latency_window").Str("name", t.Name).Int("spu", int64(t.SPU)).
		Int("window", int64(ws.Index)).
		Float("start_ms", float64(ws.Start)/float64(sim.Millisecond)).
		Float("end_ms", float64(ws.End)/float64(sim.Millisecond)).
		Int("count", ws.Count).Int("p50_ns", ws.P50).Int("p99_ns", ws.P99).Int("p999_ns", ws.P999).
		Int("good", ws.Good)
	if ws.Shed != 0 {
		e.Int("shed", ws.Shed)
	}
	e.Float("attainment", ws.Attainment).Float("burn", ws.BurnRate).Line()
}
