package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"perfiso/internal/core"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
	"perfiso/internal/trace"
)

// jsonFloat is a float64 that marshals NaN and ±Inf as null instead of
// making encoding/json error out and abort the whole export. A gauge
// whose closure divides by a zero denominator (no observations yet, a
// zero-length window) must cost one null cell, not the artifact.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	return appendJSONFloat(nil, float64(f)), nil
}

// appendJSONFloat appends v formatted exactly as encoding/json formats a
// float64 — shortest round-trip digits, exponent form only below 1e-6 or
// from 1e21 up, a one-digit negative exponent without its leading zero —
// except that NaN and ±Inf become null (see jsonFloat).
func appendJSONFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		// 1e-07 -> 1e-7, as encoding/json writes it.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString appends s as a JSON string literal with
// encoding/json's escaping.
func appendJSONString(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

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

// JSONL line shapes. One struct per metric kind keeps the field order
// (and therefore the bytes) fixed.
type counterLine struct {
	Type    string `json:"type"`
	Name    string `json:"name"`
	SPU     int    `json:"spu"`
	SPUName string `json:"spu_name"`
	Value   int64  `json:"value"`
}

type gaugeLine struct {
	Type    string    `json:"type"`
	Name    string    `json:"name"`
	SPU     int       `json:"spu"`
	SPUName string    `json:"spu_name"`
	Value   jsonFloat `json:"value"`
}

type distLine struct {
	Type    string    `json:"type"`
	Name    string    `json:"name"`
	SPU     int       `json:"spu"`
	SPUName string    `json:"spu_name"`
	N       int       `json:"n"`
	Mean    jsonFloat `json:"mean"`
	P50     jsonFloat `json:"p50"`
	P99     jsonFloat `json:"p99"`
	Max     jsonFloat `json:"max"`
}

// WriteJSONL writes every registered metric as one JSON object per
// line: counters, then gauges (evaluated now), then distributions
// (summarized), then series (full samples). Registration order is
// deterministic, field order is fixed, and no wall-clock value appears,
// so the same run always produces the same bytes.
//
// Series lines, which hold every sample of a run, are appended into a
// buffer owned by this call rather than encoded through json.Encoder:
// the encoder would park a buffer that large in encoding/json's shared
// pool, and whether a garbage collection later drops it would make the
// process's live heap differ from run to run. A series line reads
//
//	{"type":"series","name":N,"spu":I,"spu_name":S,"period_ms":P,"t_ms":[...],"v":[...]}
//
// with a null value for each NaN or ±Inf sample.
func (r *Registry) WriteJSONL(w io.Writer, names Names) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, c := range r.counters {
		if err := enc.Encode(counterLine{
			Type: "counter", Name: c.Name, SPU: int(c.SPU),
			SPUName: names.lookup(c.SPU), Value: c.Value(),
		}); err != nil {
			return err
		}
	}
	for _, g := range r.gauges {
		if err := enc.Encode(gaugeLine{
			Type: "gauge", Name: g.Name, SPU: int(g.SPU),
			SPUName: names.lookup(g.SPU), Value: jsonFloat(g.Value()),
		}); err != nil {
			return err
		}
	}
	for _, d := range r.dists {
		if err := enc.Encode(distLine{
			Type: "distribution", Name: d.Name, SPU: int(d.SPU),
			SPUName: names.lookup(d.SPU), N: d.N(), Mean: jsonFloat(d.Mean()),
			P50: jsonFloat(d.Quantile(0.50)), P99: jsonFloat(d.Quantile(0.99)),
			Max: jsonFloat(d.Quantile(1)),
		}); err != nil {
			return err
		}
	}
	periodMS := float64(r.period) / float64(sim.Millisecond)
	var b []byte
	for _, s := range r.series {
		b = append(b[:0], `{"type":"series","name":`...)
		b = appendJSONString(b, s.Name)
		b = append(b, `,"spu":`...)
		b = strconv.AppendInt(b, int64(s.SPU), 10)
		b = append(b, `,"spu_name":`...)
		b = appendJSONString(b, names.lookup(s.SPU))
		b = append(b, `,"period_ms":`...)
		b = appendJSONFloat(b, periodMS)
		b = append(b, `,"t_ms":[`...)
		for i, t := range s.ts {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONFloat(b, float64(t)/float64(sim.Millisecond))
		}
		b = append(b, `],"v":[`...)
		for i, v := range s.vs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONFloat(b, v)
		}
		b = append(b, "]}\n"...)
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// Chrome trace-event shapes (the subset of the trace_event format we
// emit; see the Trace Event Format spec). pid selects the track: pid 0
// is the machine, pid int(spu)+1 is one track per SPU.
type chromeMeta struct {
	Name string         `json:"name"`
	PH   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args chromeMetaArgs `json:"args"`
}

type chromeMetaArgs struct {
	Name string `json:"name"`
}

type chromeCounter struct {
	Name string            `json:"name"`
	PH   string            `json:"ph"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	TS   float64           `json:"ts"`
	Args chromeCounterArgs `json:"args"`
}

type chromeCounterArgs struct {
	Value float64 `json:"value"`
}

type chromeInstant struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	PH    string            `json:"ph"`
	Scope string            `json:"s"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	TS    float64           `json:"ts"`
	Args  chromeInstantArgs `json:"args"`
}

type chromeInstantArgs struct {
	Subject string `json:"subject"`
	Detail  string `json:"detail,omitempty"`
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

type chromeComplete struct {
	Name string             `json:"name"`
	Cat  string             `json:"cat"`
	PH   string             `json:"ph"`
	PID  int                `json:"pid"`
	TID  int                `json:"tid"`
	TS   float64            `json:"ts"`
	Dur  float64            `json:"dur"`
	Args *chromeCompleteArg `json:"args,omitempty"`
}

type chromeCompleteArg struct {
	Culprit string `json:"culprit"`
}

type chromeFlow struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	PH   string  `json:"ph"`
	ID   int64   `json:"id"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	TS   float64 `json:"ts"`
	BP   string  `json:"bp,omitempty"`
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
// Perfetto or chrome://tracing. Every registered series becomes a
// counter track on its SPU's process, and the kernel tracer's events
// (pass Tracer.Events(), or nil) become instant markers on the SPU they
// concern. Output is one event per line for diffability and is
// byte-deterministic for a given run.
func (r *Registry) WriteChromeTrace(w io.Writer, events []trace.Event, names Names) error {
	return r.WriteChromeTraceWithSpans(w, events, names, nil)
}

// WriteChromeTraceWithSpans is WriteChromeTrace plus profiler spans:
// each span becomes a complete ("X") duration slice on a named thread
// row of its SPU's process track, and flow arrows ("s"/"f") connect a
// flow source (a disk service span) to the stalls it resolved. Spans
// are rendered in the order given, which for the profiler is simulation
// order, so output stays byte-deterministic.
func (r *Registry) WriteChromeTraceWithSpans(w io.Writer, events []trace.Event, names Names, spans []SpanEvent) error {
	return r.WriteChromeTraceFull(w, events, names, spans, nil)
}

// WriteChromeTraceFull is the complete exporter: series counter
// tracks, external counter tracks (per-window latency percentiles),
// tracer instants, and profiler spans, in that fixed order so output
// stays byte-deterministic.
func (r *Registry) WriteChromeTraceFull(w io.Writer, events []trace.Event, names Names, spans []SpanEvent, tracks []CounterTrack) error {
	if r == nil {
		return nil
	}
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		sep := ",\n"
		if first {
			sep = ""
			first = false
		}
		_, err = fmt.Fprintf(w, "%s%s", sep, b)
		return err
	}

	// Track names: the machine plus every SPU, ascending by id.
	if err := emit(chromeMeta{Name: "process_name", PH: "M", PID: 0,
		Args: chromeMetaArgs{Name: "machine"}}); err != nil {
		return err
	}
	byName := make(map[string]core.SPUID, len(names))
	for _, id := range names.sorted() {
		byName[names[id]] = id
		if err := emit(chromeMeta{Name: "process_name", PH: "M", PID: pid(id),
			Args: chromeMetaArgs{Name: names[id]}}); err != nil {
			return err
		}
	}

	// Sampled series as counter tracks. Non-finite samples are dropped:
	// a counter track has no null representation, and one NaN would make
	// json.Marshal abort the whole file.
	for _, s := range r.series {
		for i := range s.ts {
			if math.IsNaN(s.vs[i]) || math.IsInf(s.vs[i], 0) {
				continue
			}
			if err := emit(chromeCounter{
				Name: s.Name, PH: "C", PID: pid(s.SPU),
				TS: usec(s.ts[i]), Args: chromeCounterArgs{Value: s.vs[i]},
			}); err != nil {
				return err
			}
		}
	}

	// External counter tracks (per-window latency percentiles) follow
	// the registered series, in the order the producer handed them over.
	for _, t := range tracks {
		for i := range t.TS {
			if i >= len(t.VS) || math.IsNaN(t.VS[i]) || math.IsInf(t.VS[i], 0) {
				continue
			}
			if err := emit(chromeCounter{
				Name: t.Name, PH: "C", PID: pid(t.SPU),
				TS: usec(t.TS[i]), Args: chromeCounterArgs{Value: t.VS[i]},
			}); err != nil {
				return err
			}
		}
	}

	// Tracer events as instant markers. Events whose subject is an SPU
	// name land on that SPU's track; everything else goes to the
	// machine track.
	for _, e := range events {
		p := 0
		if id, ok := byName[e.Subject]; ok {
			p = pid(id)
		}
		if err := emit(chromeInstant{
			Name: e.Action, Cat: e.Kind.String(), PH: "i", Scope: "p",
			PID: p, TS: usec(e.At),
			Args: chromeInstantArgs{Subject: e.Subject, Detail: e.Detail},
		}); err != nil {
			return err
		}
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
			if err := emit(chromeMeta{Name: "thread_name", PH: "M", PID: p, TID: tid,
				Args: chromeMetaArgs{Name: s.Track}}); err != nil {
				return err
			}
		}
		ev := chromeComplete{
			Name: s.Name, Cat: "span", PH: "X", PID: p, TID: tid,
			TS: usec(s.Start), Dur: usec(s.End - s.Start),
		}
		if s.Culprit != "" {
			ev.Args = &chromeCompleteArg{Culprit: s.Culprit}
		}
		if err := emit(ev); err != nil {
			return err
		}
		if s.FlowOut {
			if err := emit(chromeFlow{Name: s.Name, Cat: "flow", PH: "s",
				ID: s.FlowID, PID: p, TID: tid, TS: usec(s.End)}); err != nil {
				return err
			}
		}
		if s.FlowIn {
			if err := emit(chromeFlow{Name: s.Name, Cat: "flow", PH: "f", BP: "e",
				ID: s.FlowID, PID: p, TID: tid, TS: usec(s.End)}); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// UsageTimeline builds the paper's figure-style per-SPU usage rows from
// the sampled series: one "cpu", one "mem", and one "disk" row per SPU
// that has the corresponding series. Disk rows are per-interval sector
// deltas (bandwidth), not the cumulative count.
func (r *Registry) UsageTimeline(names Names) *stats.Timeline {
	tl := stats.NewTimeline()
	if r == nil {
		return tl
	}
	for _, id := range names.sorted() {
		name := names[id]
		if s := r.FindSeries(KeyCPUUsed, id); s != nil {
			for _, v := range s.vs {
				tl.Record("cpu "+name, v)
			}
		}
		if s := r.FindSeries(KeyMemResident, id); s != nil {
			for _, v := range s.vs {
				tl.Record("mem "+name, v)
			}
		}
		if s := r.FindSeries(KeyDiskSectors, id); s != nil {
			prev := 0.0
			for _, v := range s.vs {
				tl.Record("disk "+name, v-prev)
				prev = v
			}
		}
	}
	return tl
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
