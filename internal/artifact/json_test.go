package artifact

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"testing"
)

// refFloat is a float64 that encoding/json writes as null when it is
// NaN or ±Inf, the reference for AppendFloat's one departure.
type refFloat float64

func (f refFloat) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(f))
}

// AppendFloat must write what encoding/json writes for a float64 on
// both sides of its fixed/exponent switch (1e-6 and 1e21), at the
// extremes of the range, and for negative zero — and null where
// encoding/json would refuse the value.
func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 0.1, 1e20, 1e21, 5e-324, 1.5e300, -3.25e-9, 123456.789} {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat(nil, v); string(got) != string(want) {
			t.Errorf("AppendFloat(%g) = %s, json.Marshal = %s", v, got, want)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := AppendFloat(nil, v); string(got) != "null" {
			t.Errorf("AppendFloat(%g) = %s, want null", v, got)
		}
	}
}

// The integer branch of AppendFloat writes what encoding/json writes,
// for random integers on both sides of its 2^53 bound, negative zero,
// decimals and random bit patterns.
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
		if got := AppendFloat(nil, v); string(got) != string(want) {
			t.Fatalf("AppendFloat(%b) = %s, json.Marshal = %s", v, got, want)
		}
	}
}

// refLine is the struct encoding/json writes for the line the fuzz
// target builds field by field.
type refLine struct {
	S   string   `json:"s"`
	F   refFloat `json:"f"`
	I   int64    `json:"i"`
	U   uint64   `json:"u"`
	Obj struct {
		S string   `json:"s"`
		F refFloat `json:"f"`
	} `json:"obj"`
	Omit refFloat `json:"omit,omitempty"`
}

// Any string, float64 bit pattern and integer encodes exactly as
// json.Marshal encodes it (non-finite floats as null), alone and inside
// a line with a nested object, in field order.
func FuzzAppendMatchesEncodingJSON(f *testing.F) {
	for _, s := range []string{"", "plain", `q"uo\te`, "<a&b>", "bell\a", "ctl\x01\x00\x7f", "bad\xff", "line\u2028sep\u2029", "snow☃", "\b\f\n\r\t"} {
		for _, v := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e-7, 1e21, 2.5, -3} {
			f.Add(s, math.Float64bits(v), int64(-7), uint64(math.MaxUint64))
		}
	}
	f.Fuzz(func(t *testing.T, s string, bits uint64, i int64, u uint64) {
		v := math.Float64frombits(bits)
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, json.Marshal = %s", s, got, want)
		}
		want, _ = json.Marshal(refFloat(v))
		if got := AppendFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat(%b) = %s, want %s", v, got, want)
		}

		ref := refLine{S: s, F: refFloat(v), I: i, U: u, Omit: refFloat(v)}
		ref.Obj.S, ref.Obj.F = s, refFloat(-v)
		var wantLine bytes.Buffer
		if err := json.NewEncoder(&wantLine).Encode(ref); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		e := NewEncoder(&got)
		e.Begin().Str("s", s).Float("f", v).Int("i", i).Uint("u", u).
			Object("obj").Str("s", s).Float("f", -v).Close()
		if v != 0 {
			e.Float("omit", v)
		}
		e.Line()
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), wantLine.Bytes()) {
			t.Fatalf("line\n got %s\nwant %s", got.Bytes(), wantLine.Bytes())
		}
	})
}

// failWriter fails every write after the first n bytes.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n < len(p) {
		return 0, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

// A write error surfaces from Flush, and nothing is written after it.
func TestEncoderReportsFirstWriteError(t *testing.T) {
	w := &failWriter{n: flushAt}
	e := NewEncoder(w)
	for i := 0; i < 4*flushAt; i++ {
		e.Begin().Int("i", int64(i)).Line()
	}
	if err := e.Flush(); err == nil || err.Error() != "disk full" {
		t.Fatalf("Flush = %v, want the write error", err)
	}
	if len(e.b) != 0 {
		t.Fatalf("buffer kept %d bytes after the error", len(e.b))
	}
}

// Once its buffer has grown, a line of numbers (NaN included), plain
// strings and a nested object costs no allocation.
func TestEncoderLineAllocatesNothing(t *testing.T) {
	var sink bytes.Buffer
	e := NewEncoder(&sink)
	line := func() {
		e.Begin().Str("type", "span").Int("id", -42).Uint("n", 7).Float("v", 2.5e-7).
			Float("nan", math.NaN()).Object("args").Str("name", "plain").Close().Line()
		if len(e.b) >= flushAt {
			sink.Reset()
		}
	}
	if allocs := testing.AllocsPerRun(1000, line); allocs != 0 {
		t.Fatalf("a line allocates %v times", allocs)
	}
}
