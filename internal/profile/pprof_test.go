package profile

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
	"testing"

	"perfiso/internal/sim"
)

// TestPprofDecodes gunzips WritePprof output, decodes the protobuf with
// a hand-written wire-format reader, and checks the profile against the
// profiler's own views: every Totals bucket appears as a sample whose
// resolved stack is leaf-first [state, resource, spu] with the exact
// sim-time value, every Interference cell appears as a stolen sample
// with a culprit label, and nothing else is in the profile.
func TestPprofDecodes(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng)

	// Two tasks on different SPUs with distinct state mixes plus one
	// theft cell, so the profile exercises both sample shapes.
	a := p.Begin("a", spuA)
	a.To(StateRun, spuA)
	eng.RunUntil(40 * sim.Millisecond)
	a.To(StateRunnable, spuB)
	eng.RunUntil(55 * sim.Millisecond)
	a.To(StateRun, spuA)
	eng.RunUntil(70 * sim.Millisecond)
	a.Finish()
	b := p.Begin("b", spuB)
	b.To(StateMemWait, spuA)
	eng.RunUntil(90 * sim.Millisecond)
	b.To(StateRun, spuB)
	eng.RunUntil(100 * sim.Millisecond)
	b.Finish()

	var buf bytes.Buffer
	if err := p.WritePprof(&buf); err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatalf("output is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	prof := decodeProfile(t, raw)

	// Sample type and period type are simulated nanoseconds.
	if got := prof.sampleType; got != "time/nanoseconds" {
		t.Errorf("sample_type = %q, want time/nanoseconds", got)
	}

	want := map[string]int64{}
	for _, tot := range p.Totals() {
		key := fmt.Sprintf("%s;%s;%s", tot.State, tot.State.Resource(), SPUName(tot.SPU))
		want[key] += int64(tot.Time)
	}
	for _, th := range p.Interference() {
		key := fmt.Sprintf("stolen;%s;%s culprit=%s", th.Resource, SPUName(th.Victim), SPUName(th.Culprit))
		want[key] += int64(th.Stolen)
	}
	if len(want) == 0 {
		t.Fatal("test scenario produced no buckets")
	}

	got := map[string]int64{}
	for _, s := range prof.samples {
		frames := make([]string, len(s.locations))
		for i, loc := range s.locations {
			name, ok := prof.funcName[prof.locFunc[loc]]
			if !ok {
				t.Fatalf("sample references location %d with no function", loc)
			}
			frames[i] = name
		}
		key := strings.Join(frames, ";")
		if s.culprit != "" {
			key += " culprit=" + s.culprit
		}
		got[key] += s.value
	}
	for key, v := range want {
		if got[key] != v {
			t.Errorf("sample %q = %d ns, want %d ns", key, got[key], v)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("unexpected sample %q in profile", key)
		}
	}
}

// decodedProfile is the subset of pprof's Profile message the test
// verifies.
type decodedProfile struct {
	sampleType string
	samples    []decodedSample
	locFunc    map[uint64]uint64 // location id -> function id
	funcName   map[uint64]string // function id -> name
}

type decodedSample struct {
	locations []uint64 // leaf first
	value     int64
	culprit   string
}

// decodeProfile walks the top-level Profile message.
func decodeProfile(t *testing.T, raw []byte) *decodedProfile {
	t.Helper()
	prof := &decodedProfile{locFunc: map[uint64]uint64{}, funcName: map[uint64]string{}}
	var table []string
	var sampleTypeMsg []byte
	var locMsgs, fnMsgs, sampleMsgs [][]byte
	walkFields(t, raw, func(field int, wire int, v uint64, b []byte) {
		switch field {
		case 1: // sample_type
			sampleTypeMsg = b
		case 2: // sample
			sampleMsgs = append(sampleMsgs, b)
		case 4: // location
			locMsgs = append(locMsgs, b)
		case 5: // function
			fnMsgs = append(fnMsgs, b)
		case 6: // string_table
			table = append(table, string(b))
		}
	})
	str := func(i uint64) string {
		if i >= uint64(len(table)) {
			t.Fatalf("string index %d out of range (table has %d)", i, len(table))
		}
		return table[i]
	}

	var st, su uint64
	walkFields(t, sampleTypeMsg, func(field, wire int, v uint64, b []byte) {
		switch field {
		case 1:
			st = v
		case 2:
			su = v
		}
	})
	prof.sampleType = str(st) + "/" + str(su)

	for _, m := range fnMsgs {
		var id, name uint64
		walkFields(t, m, func(field, wire int, v uint64, b []byte) {
			switch field {
			case 1:
				id = v
			case 2:
				name = v
			}
		})
		prof.funcName[id] = str(name)
	}
	for _, m := range locMsgs {
		var id, fn uint64
		walkFields(t, m, func(field, wire int, v uint64, b []byte) {
			switch field {
			case 1:
				id = v
			case 4: // line message
				walkFields(t, b, func(f, w int, lv uint64, lb []byte) {
					if f == 1 {
						fn = lv
					}
				})
			}
		})
		prof.locFunc[id] = fn
	}
	for _, m := range sampleMsgs {
		var s decodedSample
		walkFields(t, m, func(field, wire int, v uint64, b []byte) {
			switch field {
			case 1: // packed location ids
				s.locations = append(s.locations, unpackVarints(t, b)...)
			case 2: // packed values
				vs := unpackVarints(t, b)
				if len(vs) != 1 {
					t.Fatalf("sample has %d values, want 1", len(vs))
				}
				s.value = int64(vs[0])
			case 3: // label
				var key, val uint64
				walkFields(t, b, func(f, w int, lv uint64, lb []byte) {
					switch f {
					case 1:
						key = lv
					case 2:
						val = lv
					}
				})
				if str(key) != "culprit" {
					t.Fatalf("unexpected label key %q", str(key))
				}
				s.culprit = str(val)
			}
		})
		prof.samples = append(prof.samples, s)
	}
	return prof
}

// walkFields iterates a protobuf message's fields, calling fn with the
// varint value (wire type 0) or the raw bytes (wire type 2).
func walkFields(t *testing.T, b []byte, fn func(field, wire int, v uint64, raw []byte)) {
	t.Helper()
	for len(b) > 0 {
		tag, n := readVarint(b)
		if n == 0 {
			t.Fatal("truncated tag")
		}
		b = b[n:]
		field, wire := int(tag>>3), int(tag&7)
		switch wire {
		case 0:
			v, n := readVarint(b)
			if n == 0 {
				t.Fatal("truncated varint")
			}
			b = b[n:]
			fn(field, wire, v, nil)
		case 2:
			l, n := readVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				t.Fatal("truncated length-delimited field")
			}
			fn(field, wire, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		default:
			t.Fatalf("unexpected wire type %d for field %d", wire, field)
		}
	}
}

func unpackVarints(t *testing.T, b []byte) []uint64 {
	t.Helper()
	var out []uint64
	for len(b) > 0 {
		v, n := readVarint(b)
		if n == 0 {
			t.Fatal("truncated packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out
}

func readVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
