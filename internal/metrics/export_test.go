package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"perfiso/internal/sim"
)

// A gauge dividing by a zero denominator, a distribution fed a NaN, or
// a series sampling Inf must cost a null cell (JSONL) or a dropped
// sample (Chrome trace) — never an export that errors out halfway,
// leaving a truncated artifact.
func TestExportsSanitizeNonFiniteValues(t *testing.T) {
	eng := sim.NewEngine()
	r := New(eng, 10*sim.Millisecond)
	r.Gauge("bad.nan", NoSPU, func() float64 { return math.NaN() })
	r.Gauge("bad.posinf", NoSPU, func() float64 { return math.Inf(1) })
	r.Gauge("bad.neginf", NoSPU, func() float64 { return math.Inf(-1) })
	r.Gauge("good.gauge", NoSPU, func() float64 { return 2.5 })
	d := r.Distribution("bad.dist", NoSPU)
	d.Observe(math.NaN())
	d.Observe(1)
	vals := []float64{1, math.NaN(), 3, math.Inf(1)}
	i := 0
	s := r.Series("mixed.series", 2, func() float64 { v := vals[i]; i++; return v })
	for range vals {
		eng.At(eng.Now()+r.Period(), "sample", r.Sample)
		eng.Run()
	}
	if s.Len() != len(vals) {
		t.Fatalf("sampled %d values, want %d", s.Len(), len(vals))
	}

	var jsonl bytes.Buffer
	if err := r.WriteJSONL(&jsonl, Names{2: "u"}); err != nil {
		t.Fatalf("WriteJSONL errored on non-finite values: %v", err)
	}
	lines := strings.Split(strings.TrimRight(jsonl.String(), "\n"), "\n")
	nulls := 0
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("invalid JSONL line: %s", line)
		}
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatal(err)
		}
		switch obj["name"] {
		case "bad.nan", "bad.posinf", "bad.neginf":
			if obj["value"] != nil {
				t.Fatalf("%s exported as %v, want null", obj["name"], obj["value"])
			}
			nulls++
		case "good.gauge":
			if obj["value"] != 2.5 {
				t.Fatalf("finite gauge mangled: %v", obj["value"])
			}
		case "mixed.series":
			vs := obj["v"].([]any)
			if len(vs) != len(vals) {
				t.Fatalf("series exported %d values, want %d", len(vs), len(vals))
			}
			if vs[0] != 1.0 || vs[1] != nil || vs[2] != 3.0 || vs[3] != nil {
				t.Fatalf("series values = %v, want [1 null 3 null]", vs)
			}
		}
	}
	if nulls != 3 {
		t.Fatalf("saw %d null gauges, want 3", nulls)
	}

	var chrome bytes.Buffer
	if err := r.WriteChromeTrace(&chrome, nil, Names{2: "u"}, nil, nil); err != nil {
		t.Fatalf("WriteChromeTrace errored on non-finite values: %v", err)
	}
	if !json.Valid(chrome.Bytes()) {
		t.Fatalf("chrome trace is not valid JSON:\n%s", chrome.String())
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	counters := 0
	for _, e := range doc.TraceEvents {
		if e["ph"] == "C" {
			counters++
		}
	}
	if counters != 2 { // the two finite samples; NaN and Inf dropped
		t.Fatalf("chrome trace has %d counter samples, want 2", counters)
	}
}

// appendJSONFloat must write what encoding/json writes for a float64 on
// both sides of its fixed/exponent switch (1e-6 and 1e21), at the
// extremes of the range, and for negative zero — and null where
// encoding/json would refuse the value.
func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 0.1, 1e20, 1e21, 5e-324, 1.5e300, -3.25e-9, 123456.789} {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, v); string(got) != string(want) {
			t.Errorf("appendJSONFloat(%g) = %s, json.Marshal = %s", v, got, want)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := appendJSONFloat(nil, v); string(got) != "null" {
			t.Errorf("appendJSONFloat(%g) = %s, want null", v, got)
		}
	}
}

// The integer branch of appendJSONFloat writes what encoding/json
// writes, for random integers on both sides of its 2^53 bound, negative
// zero, decimals and random bit patterns.
func TestAppendJSONFloatIntegersMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 1))
	const n = 1 << 17
	vals := []float64{math.Copysign(0, -1), 1 << 53, -(1 << 53), 1<<53 - 1, -(1<<53 - 1), 1 << 54}
	for i := 0; i < n; i++ {
		vals = append(vals,
			float64(rng.Int64N(1<<55)-1<<54),         // integers up to ±2^54
			float64(rng.Int64N(2_000_001)-1_000_000), // small integers
			float64(rng.Int64N(1<<40))/1000,          // decimals
			math.Float64frombits(rng.Uint64()))       // any bit pattern
	}
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, v); string(got) != string(want) {
			t.Fatalf("appendJSONFloat(%b) = %s, json.Marshal = %s", v, got, want)
		}
	}
}

// structSeriesLine is the series line shape as an encoding/json struct,
// field for field; the hand-appended series lines must match its bytes.
type structSeriesLine struct {
	Type     string      `json:"type"`
	Name     string      `json:"name"`
	SPU      int         `json:"spu"`
	SPUName  string      `json:"spu_name"`
	PeriodMS float64     `json:"period_ms"`
	TimesMS  []float64   `json:"t_ms"`
	Values   []jsonFloat `json:"v"`
}

// A series line — with NaN, ±Inf and exponent-form samples, odd sample
// times, a name that needs escaping, and an empty series — is
// byte-identical to the struct encoding of the same line.
func TestSeriesLinesMatchStructEncoding(t *testing.T) {
	eng := sim.NewEngine()
	r := New(eng, 10*sim.Millisecond)
	vals := []float64{1, math.NaN(), 2.5e-7, math.Inf(-1), 1e21, -0.125}
	i := 0
	r.Series("odd<&>\"name\"", 2, func() float64 { v := vals[i]; i++; return v })
	for _, at := range []sim.Time{0, 1, 7*sim.Millisecond + 333, sim.Second, 3*sim.Second + 1, 90 * sim.Second} {
		eng.At(at, "sample", r.Sample)
		eng.Run()
	}
	r.Series("empty", NoSPU, func() float64 { return 0 })

	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, s := range r.series {
		line := structSeriesLine{
			Type: "series", Name: s.Name, SPU: int(s.SPU), SPUName: Names{2: "u"}.lookup(s.SPU),
			PeriodMS: 10, TimesMS: []float64{}, Values: []jsonFloat{},
		}
		for j, t := range s.ts {
			line.TimesMS = append(line.TimesMS, float64(t)/float64(sim.Millisecond))
			line.Values = append(line.Values, jsonFloat(s.vs[j]))
		}
		if err := enc.Encode(line); err != nil {
			t.Fatal(err)
		}
	}
	var got bytes.Buffer
	if err := r.WriteJSONL(&got, Names{2: "u"}); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("series lines differ from the struct encoding:\ngot:  %s\nwant: %s", got.String(), want.String())
	}
	if !strings.Contains(got.String(), "null") || !strings.Contains(got.String(), "e-7") {
		t.Fatalf("test lost its non-finite or exponent samples: %s", got.String())
	}
}
