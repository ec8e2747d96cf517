package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/sim"
	"perfiso/internal/trace"
)

// The line shapes the exports were written from before they went
// through the artifact encoder, kept as the reference: encoding/json
// over these structs gives the bytes the writers must keep.

// jsonFloat is a float64 that encoding/json writes as null when it is
// NaN or ±Inf.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(f))
}

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

// referenceJSONL writes the counter, gauge and distribution lines from
// the structs above.
func referenceJSONL(w io.Writer, r *Registry, names Names) error {
	enc := json.NewEncoder(w)
	for _, c := range r.counters {
		if err := enc.Encode(counterLine{"counter", c.Name, int(c.SPU), names.lookup(c.SPU), c.Value()}); err != nil {
			return err
		}
	}
	for _, g := range r.gauges {
		if err := enc.Encode(gaugeLine{"gauge", g.Name, int(g.SPU), names.lookup(g.SPU), jsonFloat(g.Value())}); err != nil {
			return err
		}
	}
	for _, d := range r.dists {
		if err := enc.Encode(distLine{"distribution", d.Name, int(d.SPU), names.lookup(d.SPU), d.N(),
			jsonFloat(d.Mean()), jsonFloat(d.Quantile(0.50)), jsonFloat(d.Quantile(0.99)), jsonFloat(d.Quantile(1))}); err != nil {
			return err
		}
	}
	return nil
}

// referenceChromeTrace is WriteChromeTrace as it was written with
// json.Marshal over the structs above.
func referenceChromeTrace(w io.Writer, r *Registry, events []trace.Event, names Names, spans []SpanEvent, tracks []CounterTrack) error {
	io.WriteString(w, "{\"traceEvents\":[\n")
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
	if err := emit(chromeMeta{Name: "process_name", PH: "M", Args: chromeMetaArgs{Name: "machine"}}); err != nil {
		return err
	}
	byName := make(map[string]core.SPUID, len(names))
	for _, id := range names.sorted() {
		byName[names[id]] = id
		if err := emit(chromeMeta{Name: "process_name", PH: "M", PID: pid(id), Args: chromeMetaArgs{Name: names[id]}}); err != nil {
			return err
		}
	}
	counter := func(name string, spu core.SPUID, ts []sim.Time, vs []float64) error {
		for i := range ts {
			if i >= len(vs) || math.IsNaN(vs[i]) || math.IsInf(vs[i], 0) {
				continue
			}
			if err := emit(chromeCounter{Name: name, PH: "C", PID: pid(spu), TS: usec(ts[i]),
				Args: chromeCounterArgs{Value: vs[i]}}); err != nil {
				return err
			}
		}
		return nil
	}
	for _, s := range r.series {
		if err := counter(s.Name, s.SPU, s.ts, s.vs); err != nil {
			return err
		}
	}
	for _, t := range tracks {
		if err := counter(t.Name, t.SPU, t.TS, t.VS); err != nil {
			return err
		}
	}
	for _, e := range events {
		p := 0
		if id, ok := byName[e.Subject]; ok {
			p = pid(id)
		}
		if err := emit(chromeInstant{Name: e.Action, Cat: e.Kind.String(), PH: "i", Scope: "p", PID: p, TS: usec(e.At),
			Args: chromeInstantArgs{Subject: e.Subject, Detail: e.Detail}}); err != nil {
			return err
		}
	}
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
			if err := emit(chromeMeta{Name: "thread_name", PH: "M", PID: p, TID: tid, Args: chromeMetaArgs{Name: s.Track}}); err != nil {
				return err
			}
		}
		ev := chromeComplete{Name: s.Name, Cat: "span", PH: "X", PID: p, TID: tid, TS: usec(s.Start), Dur: usec(s.End - s.Start)}
		if s.Culprit != "" {
			ev.Args = &chromeCompleteArg{Culprit: s.Culprit}
		}
		if err := emit(ev); err != nil {
			return err
		}
		if s.FlowOut {
			if err := emit(chromeFlow{Name: s.Name, Cat: "flow", PH: "s", ID: s.FlowID, PID: p, TID: tid, TS: usec(s.End)}); err != nil {
				return err
			}
		}
		if s.FlowIn {
			if err := emit(chromeFlow{Name: s.Name, Cat: "flow", PH: "f", BP: "e", ID: s.FlowID, PID: p, TID: tid, TS: usec(s.End)}); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// randString draws a name from pieces that need no escape, pieces that
// encoding/json escapes, and the empty string.
func randString(rng *rand.Rand) string {
	pieces := []string{"", "cpu", "spu3", "job.7", `"`, `\`, "<", ">", "&", "\a", "\x01", "\x00", "\x7f", "\u2028", "é", "\xff", " ", "\t"}
	s := ""
	for n := rng.IntN(4); n > 0; n-- {
		s += pieces[rng.IntN(len(pieces))]
	}
	return s
}

// randFloat draws special values (NaN, ±Inf, ±0), exponent-form
// magnitudes, integers and arbitrary bit patterns.
func randFloat(rng *rand.Rand) float64 {
	switch rng.IntN(6) {
	case 0:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1e-7, 1e21}[rng.IntN(7)]
	case 1:
		return float64(rng.Int64N(1<<54) - 1<<53)
	case 2:
		return rng.Float64() * 1e-5
	case 3:
		return math.Float64frombits(rng.Uint64())
	default:
		return (rng.Float64() - 0.5) * 1e4
	}
}

// randomRegistry registers counters, gauges, distributions (exact and
// spilled) and sampled series with random names and values.
func randomRegistry(rng *rand.Rand) (*Registry, Names) {
	eng := sim.NewEngine()
	r := New(eng, sim.Time(1+rng.IntN(100))*sim.Millisecond)
	names := Names{}
	for i := rng.IntN(4); i > 0; i-- {
		names[core.SPUID(rng.IntN(6))] = randString(rng)
	}
	spu := func() core.SPUID { return core.SPUID(rng.IntN(7)) - 1 }
	for i := rng.IntN(6); i > 0; i-- {
		r.Counter(randString(rng), spu()).Add(rng.Int64() >> rng.IntN(64))
	}
	for i := rng.IntN(6); i > 0; i-- {
		v := randFloat(rng)
		r.Gauge(randString(rng), spu(), func() float64 { return v })
	}
	for i := rng.IntN(4); i > 0; i-- {
		d := r.Distribution(randString(rng), spu())
		n := rng.IntN(300)
		if rng.IntN(8) == 0 {
			n = ExactCap + 1 + rng.IntN(100)
		}
		for j := 0; j < n; j++ {
			if n > ExactCap {
				d.Observe(rng.Float64())
			} else {
				d.Observe(randFloat(rng))
			}
		}
	}
	for i := rng.IntN(3); i > 0; i-- {
		r.Series(randString(rng), spu(), func() float64 { return randFloat(rng) })
	}
	for at := sim.Time(0); at < 10*r.Period(); at += sim.Time(1 + rng.IntN(int(r.Period()))) {
		eng.At(at, "sample", r.Sample)
	}
	eng.Run()
	return r, names
}

// The counter, gauge and distribution lines — names that need
// escaping, NaN, ±Inf, −0 and exponent-form values, exact and spilled
// distributions — are byte-identical to the struct encoding.
func TestMetricLinesMatchStructEncoding(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 1))
	for round := 0; round < 300; round++ {
		r, names := randomRegistry(rng)
		var want bytes.Buffer
		if err := referenceJSONL(&want, r, names); err != nil {
			t.Fatal(err)
		}
		series := r.series
		r.series = nil // series lines have their own reference test
		var got bytes.Buffer
		if err := r.WriteJSONL(&got, names); err != nil {
			t.Fatal(err)
		}
		r.series = series
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("round %d: lines differ from the struct encoding:\ngot:\n%s\nwant:\n%s", round, got.Bytes(), want.Bytes())
		}
	}
}

// A Chrome trace with random series, counter tracks, tracer instants
// (with and without detail) and spans (with and without culprit, flow
// sources and targets) is byte-identical to the struct encoding.
func TestChromeTraceMatchesStructEncoding(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 2))
	for round := 0; round < 300; round++ {
		r, names := randomRegistry(rng)
		at := func() sim.Time { return sim.Time(rng.Int64N(int64(100 * sim.Second))) }
		var events []trace.Event
		for i := rng.IntN(8); i > 0; i-- {
			subject := randString(rng)
			if len(names) > 0 && rng.IntN(2) == 0 {
				for _, n := range names {
					subject = n
					break
				}
			}
			events = append(events, trace.Event{At: at(), Kind: trace.Kind(rng.IntN(4)),
				Subject: subject, Action: randString(rng), Detail: randString(rng)})
		}
		var spans []SpanEvent
		for i := rng.IntN(10); i > 0; i-- {
			start := at()
			spans = append(spans, SpanEvent{Name: randString(rng), SPU: core.SPUID(rng.IntN(4)),
				Track: randString(rng), Start: start, End: start + sim.Time(rng.IntN(1e9)),
				Culprit: randString(rng), FlowID: rng.Int64(), FlowIn: rng.IntN(2) == 0, FlowOut: rng.IntN(2) == 0})
		}
		var tracks []CounterTrack
		for i := rng.IntN(3); i > 0; i-- {
			tr := CounterTrack{Name: randString(rng), SPU: core.SPUID(rng.IntN(4))}
			for j := rng.IntN(6); j > 0; j-- {
				tr.TS = append(tr.TS, at())
				tr.VS = append(tr.VS, randFloat(rng))
			}
			if len(tr.VS) > 0 && rng.IntN(2) == 0 {
				tr.VS = tr.VS[:len(tr.VS)-1] // a point without a value is skipped
			}
			tracks = append(tracks, tr)
		}
		var want, got bytes.Buffer
		if err := referenceChromeTrace(&want, r, events, names, spans, tracks); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteChromeTrace(&got, events, names, spans, tracks); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("round %d: trace differs from the struct encoding:\ngot:\n%s\nwant:\n%s", round, got.Bytes(), want.Bytes())
		}
	}
}

// Writing ten times as many counter, gauge and distribution lines
// costs no more allocations: no line boxes a value.
func TestWriteJSONLAllocationsDoNotGrowWithLines(t *testing.T) {
	allocs := func(n int) float64 {
		r := New(sim.NewEngine(), 10*sim.Millisecond)
		names := Names{2: "alice"}
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("m%d", i)
			r.Counter(name, 2).Add(int64(i))
			r.Gauge(name, 2, func() float64 { return 1.5 })
			d := r.Distribution(name, NoSPU)
			for j := 0; j < 50; j++ {
				d.Observe(float64(j) * 1e-3)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if err := r.WriteJSONL(io.Discard, names); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(10), allocs(100); many != few {
		t.Fatalf("WriteJSONL allocates %v times for 30 lines and %v for 300", few, many)
	}
}
