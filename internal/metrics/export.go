package metrics

import (
	"io"
	"math"
	"sort"
	"strconv"

	"perfiso/internal/artifact"
	"perfiso/internal/core"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
	"perfiso/internal/trace"
)

// Names maps an SPU id to its display name for exports. NoSPU and
// unknown ids render as "machine".
type Names map[core.SPUID]string

func (n Names) lookup(spu core.SPUID) string {
	if name, ok := n[spu]; ok {
		return name
	}
	return "machine"
}

// sorted returns the named SPU ids in ascending order — the iteration
// order every exporter uses, so output never depends on map order.
func (n Names) sorted() []core.SPUID {
	ids := make([]core.SPUID, 0, len(n))
	for id := range n {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// WriteJSONL writes every registered metric as one JSON object per
// line: counters, then gauges (evaluated now), then distributions
// (summarized), then series (full samples). Registration order is
// deterministic, field order is fixed, and no wall-clock value appears,
// so the same run always produces the same bytes. NaN and ±Inf values
// are written as null.
//
// A series line holds every sample of a run. It is appended sample by
// sample, with the artifact encoder's number and string appenders,
// into one buffer of this call, and reads
//
//	{"type":"series","name":N,"spu":I,"spu_name":S,"period_ms":P,"t_ms":[...],"v":[...]}
func (r *Registry) WriteJSONL(w io.Writer, names Names) error {
	if r == nil {
		return nil
	}
	e := artifact.NewEncoder(w)
	for _, c := range r.counters {
		e.Begin().Str("type", "counter").Str("name", c.Name).Int("spu", int64(c.SPU)).
			Str("spu_name", names.lookup(c.SPU)).Int("value", c.Value()).Line()
	}
	for _, g := range r.gauges {
		e.Begin().Str("type", "gauge").Str("name", g.Name).Int("spu", int64(g.SPU)).
			Str("spu_name", names.lookup(g.SPU)).Float("value", g.Value()).Line()
	}
	var sorted []float64
	for _, d := range r.dists {
		var p50, p99, max float64
		p50, p99, max, sorted = d.summary(sorted)
		e.Begin().Str("type", "distribution").Str("name", d.Name).Int("spu", int64(d.SPU)).
			Str("spu_name", names.lookup(d.SPU)).Int("n", int64(d.N())).Float("mean", d.Mean()).
			Float("p50", p50).Float("p99", p99).Float("max", max).Line()
	}
	if err := e.Flush(); err != nil {
		return err
	}
	periodMS := float64(r.period) / float64(sim.Millisecond)
	var b []byte
	for _, s := range r.series {
		b = append(b[:0], `{"type":"series","name":`...)
		b = artifact.AppendString(b, s.Name)
		b = append(b, `,"spu":`...)
		b = strconv.AppendInt(b, int64(s.SPU), 10)
		b = append(b, `,"spu_name":`...)
		b = artifact.AppendString(b, names.lookup(s.SPU))
		b = append(b, `,"period_ms":`...)
		b = artifact.AppendFloat(b, periodMS)
		b = append(b, `,"t_ms":[`...)
		for i, t := range s.ts {
			if i > 0 {
				b = append(b, ',')
			}
			b = artifact.AppendFloat(b, float64(t)/float64(sim.Millisecond))
		}
		b = append(b, `],"v":[`...)
		for i, v := range s.vs {
			if i > 0 {
				b = append(b, ',')
			}
			b = artifact.AppendFloat(b, v)
		}
		b = append(b, "]}\n"...)
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// summary returns the p50, p99 and max that Quantile reports, sorting
// the exact values once into buf, which the caller reuses across
// lines, instead of copying and sorting them once per quantile.
func (d *Distribution) summary(buf []float64) (p50, p99, max float64, _ []float64) {
	if d.h != nil || len(d.vs) == 0 {
		return d.Quantile(0.50), d.Quantile(0.99), d.Quantile(1), buf
	}
	buf = append(buf[:0], d.vs...)
	sort.Float64s(buf)
	at := func(q float64) float64 { return buf[int(q*float64(len(buf)-1))] }
	return at(0.50), at(0.99), buf[len(buf)-1], buf
}

// CounterTrack is a pre-sampled counter series handed to the
// Chrome-trace exporter by an outside producer (the latency registry's
// per-window percentiles). Like SpanEvent it is deliberately decoupled
// from the producer's types. Points render on the SPU's process track
// in the order given.
type CounterTrack struct {
	Name string
	SPU  core.SPUID
	TS   []sim.Time
	VS   []float64
}

// SpanEvent is a timed interval handed to the Chrome-trace exporter by
// an outside producer (the simulated-time profiler). It is deliberately
// decoupled from that producer's types so metrics stays a leaf of the
// observability layer. Track names the thread row within the SPU's
// process; Culprit, when non-empty, is attached as an argument on the
// slice. FlowOut marks the span as a flow source under FlowID, FlowIn
// as a flow target — the exporter draws the arrow between them.
type SpanEvent struct {
	Name    string
	SPU     core.SPUID
	Track   string
	Start   sim.Time
	End     sim.Time
	Culprit string
	FlowID  int64
	FlowIn  bool
	FlowOut bool
}

// pid maps an SPU to its Chrome-trace process track. Track 0 is the
// machine; SPU n (including the kernel SPU 0) gets track n+1.
func pid(spu core.SPUID) int {
	if spu == NoSPU {
		return 0
	}
	return int(spu) + 1
}

// usec converts simulation time to the microsecond timestamps the
// trace-event format expects.
func usec(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

// WriteChromeTrace writes a Chrome trace-event JSON file openable in
// Perfetto or chrome://tracing, in a fixed order so output stays
// byte-deterministic:
//
//   - every registered series becomes a counter track on its SPU's
//     process, followed by the external counter tracks (per-window
//     latency percentiles);
//   - the kernel tracer's events (Tracer.Events(), or nil) become
//     instant markers on the SPU they concern;
//   - each profiler span becomes a complete ("X") duration slice on a
//     named thread row of its SPU's process track, in the order given
//     (simulation order, for the profiler), and flow arrows ("s"/"f")
//     connect a flow source (a disk service span) to the stalls it
//     resolved.
//
// Output is one event per line for diffability.
func (r *Registry) WriteChromeTrace(w io.Writer, events []trace.Event, names Names, spans []SpanEvent, tracks []CounterTrack) error {
	if r == nil {
		return nil
	}
	// The first event follows the opening on a new line, each later one
	// a comma.
	e := artifact.NewEncoder(w)
	e.Raw(`{"traceEvents":[`)
	sep := "\n"
	event := func() *artifact.Encoder {
		e.Raw(sep).Begin()
		sep = ",\n"
		return e
	}
	meta := func(kind string, pid, tid int, name string) {
		event().Str("name", kind).Str("ph", "M").Int("pid", int64(pid)).Int("tid", int64(tid)).
			Object("args").Str("name", name).Close().Close()
	}
	counter := func(name string, pid int, at sim.Time, v float64) {
		event().Str("name", name).Str("ph", "C").Int("pid", int64(pid)).Int("tid", 0).
			Float("ts", usec(at)).Object("args").Float("value", v).Close().Close()
	}

	// Track names: the machine plus every SPU, ascending by id.
	meta("process_name", 0, 0, "machine")
	byName := make(map[string]core.SPUID, len(names))
	for _, id := range names.sorted() {
		byName[names[id]] = id
		meta("process_name", pid(id), 0, names[id])
	}

	// Sampled series as counter tracks. Non-finite samples are dropped:
	// a counter track has no null representation.
	for _, s := range r.series {
		for i := range s.ts {
			if math.IsNaN(s.vs[i]) || math.IsInf(s.vs[i], 0) {
				continue
			}
			counter(s.Name, pid(s.SPU), s.ts[i], s.vs[i])
		}
	}

	// External counter tracks (per-window latency percentiles) follow
	// the registered series, in the order the producer handed them over.
	for _, t := range tracks {
		for i := range t.TS {
			if i >= len(t.VS) || math.IsNaN(t.VS[i]) || math.IsInf(t.VS[i], 0) {
				continue
			}
			counter(t.Name, pid(t.SPU), t.TS[i], t.VS[i])
		}
	}

	// Tracer events as instant markers. Events whose subject is an SPU
	// name land on that SPU's track; everything else goes to the
	// machine track.
	for _, ev := range events {
		p := 0
		if id, ok := byName[ev.Subject]; ok {
			p = pid(id)
		}
		event().Str("name", ev.Action).Str("cat", ev.Kind.String()).Str("ph", "i").Str("s", "p").
			Int("pid", int64(p)).Int("tid", 0).Float("ts", usec(ev.At)).
			Object("args").Str("subject", ev.Subject)
		if ev.Detail != "" {
			e.Str("detail", ev.Detail)
		}
		e.Close().Close()
	}

	// Profiler spans as duration slices, one named thread row per
	// (SPU, track) pair in first-appearance order, with flow arrows
	// from each flow source to its targets.
	type trackKey struct {
		pid   int
		track string
	}
	tids := make(map[trackKey]int)
	for _, s := range spans {
		p := pid(s.SPU)
		key := trackKey{p, s.Track}
		tid, ok := tids[key]
		if !ok {
			tid = len(tids) + 1
			tids[key] = tid
			meta("thread_name", p, tid, s.Track)
		}
		event().Str("name", s.Name).Str("cat", "span").Str("ph", "X").
			Int("pid", int64(p)).Int("tid", int64(tid)).
			Float("ts", usec(s.Start)).Float("dur", usec(s.End-s.Start))
		if s.Culprit != "" {
			e.Object("args").Str("culprit", s.Culprit).Close()
		}
		e.Close()
		if s.FlowOut {
			event().Str("name", s.Name).Str("cat", "flow").Str("ph", "s").Int("id", s.FlowID).
				Int("pid", int64(p)).Int("tid", int64(tid)).Float("ts", usec(s.End)).Close()
		}
		if s.FlowIn {
			event().Str("name", s.Name).Str("cat", "flow").Str("ph", "f").Int("id", s.FlowID).
				Int("pid", int64(p)).Int("tid", int64(tid)).Float("ts", usec(s.End)).
				Str("bp", "e").Close()
		}
	}
	e.Raw("\n]}\n")
	return e.Flush()
}

// UsageTable summarizes the sampled series per SPU: mean and peak CPUs
// in use, mean and peak resident MB-equivalent (whatever unit the
// series was registered in), and total disk sectors moved.
func (r *Registry) UsageTable(names Names) *stats.Table {
	t := stats.NewTable("Per-SPU usage (sampled)",
		"SPU", "cpu mean", "cpu peak", "mem mean", "mem peak", "disk sectors")
	if r == nil {
		return t
	}
	for _, id := range names.sorted() {
		name := names[id]
		if r.FindSeries(KeyCPUUsed, id) == nil && r.FindSeries(KeyMemResident, id) == nil {
			continue // no series sampled for this SPU (kernel, shared)
		}
		cpuMean, cpuPeak := meanPeak(r.FindSeries(KeyCPUUsed, id))
		memMean, memPeak := meanPeak(r.FindSeries(KeyMemResident, id))
		var sectors float64
		if s := r.FindSeries(KeyDiskSectors, id); s != nil && len(s.vs) > 0 {
			sectors = s.vs[len(s.vs)-1]
		}
		t.Addf(name, cpuMean, cpuPeak, memMean, memPeak, int64(sectors))
	}
	return t
}

func meanPeak(s *Series) (mean, peak float64) {
	if s == nil || len(s.vs) == 0 {
		return 0, 0
	}
	var sum float64
	for _, v := range s.vs {
		sum += v
		if v > peak {
			peak = v
		}
	}
	return sum / float64(len(s.vs)), peak
}
