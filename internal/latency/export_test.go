package latency

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"testing"

	"perfiso/internal/artifact"
	"perfiso/internal/core"
	"perfiso/internal/sim"
)

// The line shapes the export was written from before it went through
// the artifact encoder, kept as the reference: encoding/json over these
// structs gives the bytes WriteJSONL must keep.

// jsonFloat is a float64 that encoding/json writes as null when it is
// NaN or ±Inf.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(f))
}

type latencyLine struct {
	Type     string `json:"type"`
	Name     string `json:"name"`
	SPU      int    `json:"spu"`
	Count    int64  `json:"count"`
	Censored int64  `json:"censored"`
	MinNS    int64  `json:"min_ns"`
	MeanNS   int64  `json:"mean_ns"`
	P50NS    int64  `json:"p50_ns"`
	P90NS    int64  `json:"p90_ns"`
	P99NS    int64  `json:"p99_ns"`
	P999NS   int64  `json:"p999_ns"`
	MaxNS    int64  `json:"max_ns"`
}

type sloLine struct {
	Type        string    `json:"type"`
	Name        string    `json:"name"`
	SPU         int       `json:"spu"`
	ThresholdNS int64     `json:"threshold_ns"`
	Target      jsonFloat `json:"target"`
	Good        int64     `json:"good"`
	Shed        int64     `json:"shed,omitempty"`
	Attainment  jsonFloat `json:"attainment"`
	BudgetBurn  jsonFloat `json:"budget_burn"`
}

type windowLine struct {
	Type       string    `json:"type"`
	Name       string    `json:"name"`
	SPU        int       `json:"spu"`
	Window     int       `json:"window"`
	StartMS    jsonFloat `json:"start_ms"`
	EndMS      jsonFloat `json:"end_ms"`
	Count      int64     `json:"count"`
	P50NS      int64     `json:"p50_ns"`
	P99NS      int64     `json:"p99_ns"`
	P999NS     int64     `json:"p999_ns"`
	Good       int64     `json:"good"`
	Shed       int64     `json:"shed,omitempty"`
	Attainment jsonFloat `json:"attainment"`
	BurnRate   jsonFloat `json:"burn"`
}

func refWindow(t *Tracker, ws WindowStat) windowLine {
	return windowLine{"latency_window", t.Name, int(t.SPU), ws.Index,
		jsonFloat(float64(ws.Start) / float64(sim.Millisecond)), jsonFloat(float64(ws.End) / float64(sim.Millisecond)),
		ws.Count, ws.P50, ws.P99, ws.P999, ws.Good, ws.Shed, jsonFloat(ws.Attainment), jsonFloat(ws.BurnRate)}
}

// referenceJSONL writes the registry from the structs above.
func referenceJSONL(w io.Writer, r *Registry) error {
	enc := json.NewEncoder(w)
	for _, t := range r.trackers {
		h := t.total
		if err := enc.Encode(latencyLine{"latency", t.Name, int(t.SPU), h.Count(), t.censored, h.Min(), h.Mean(),
			h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Quantile(0.999), h.Max()}); err != nil {
			return err
		}
		if t.Obj.Valid() {
			if err := enc.Encode(sloLine{"slo", t.Name, int(t.SPU), int64(t.Obj.Threshold), jsonFloat(t.Obj.Target),
				t.good, t.shed, jsonFloat(t.Attainment()), jsonFloat(t.BudgetBurn())}); err != nil {
				return err
			}
		}
		for _, ws := range t.Windows() {
			if err := enc.Encode(refWindow(t, ws)); err != nil {
				return err
			}
		}
	}
	return nil
}

func randName(rng *rand.Rand) string {
	pieces := []string{"", "web", "db.2", `"`, `\`, "<&>", "\a", "\x01", "\u2028", "\xff"}
	return pieces[rng.IntN(len(pieces))] + pieces[rng.IntN(len(pieces))]
}

// Random registries — trackers with and without an objective, shed and
// censored requests, empty and sparse timelines — export the bytes of
// the struct encoding, shed omitted exactly where it is zero.
func TestWriteJSONLMatchesStructEncoding(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 3))
	for round := 0; round < 300; round++ {
		r := NewRegistry(sim.Time(1+rng.IntN(1000)) * sim.Millisecond)
		for i := rng.IntN(4); i > 0; i-- {
			var slo SLO
			if rng.IntN(3) > 0 {
				slo = SLO{Threshold: sim.Time(rng.IntN(20)) * sim.Millisecond, Target: rng.Float64()}
			}
			tr := r.Tracker(randName(rng), core.SPUID(rng.IntN(8)), slo)
			for j := rng.IntN(200); j > 0; j-- {
				at := sim.Time(rng.Int64N(int64(20 * sim.Second)))
				switch rng.IntN(8) {
				case 0:
					tr.RecordShed(at)
				case 1:
					tr.RecordCensored(at, sim.Time(rng.Int64N(int64(sim.Second))))
				default:
					tr.Record(at, sim.Time(rng.Int64N(int64(40*sim.Millisecond))))
				}
			}
		}
		var want, got bytes.Buffer
		if err := referenceJSONL(&want, r); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteJSONL(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("round %d: JSONL differs from the struct encoding:\ngot:\n%s\nwant:\n%s", round, got.Bytes(), want.Bytes())
		}
	}
}

// A window line carrying NaN, ±Inf or −0 writes null where the struct
// encoding (with its non-finite floats as null) does, and −0 as -0;
// the guards in windowStat keep such values out of real exports.
func TestWindowLineNonFiniteMatchesStructEncoding(t *testing.T) {
	tr := &Tracker{Name: "web", SPU: 3}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e-7, 99.5}
	for _, a := range specials {
		for _, b := range specials {
			for _, shed := range []int64{0, 4} {
				ws := WindowStat{Index: 2, Start: 2 * sim.Second, End: 3 * sim.Second, Count: 9,
					P50: 1, P99: 2, P999: 3, Good: 5, Shed: shed, Attainment: a, BurnRate: b}
				var want, got bytes.Buffer
				if err := json.NewEncoder(&want).Encode(refWindow(tr, ws)); err != nil {
					t.Fatal(err)
				}
				e := artifact.NewEncoder(&got)
				writeWindow(e, tr, ws)
				if err := e.Flush(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("window line\n got %s\nwant %s", got.Bytes(), want.Bytes())
				}
			}
		}
	}
}

// Exporting ten times as many windows costs no more allocations: no
// line boxes a value and no window list is built.
func TestWriteJSONLAllocationsDoNotGrowWithWindows(t *testing.T) {
	allocs := func(windows int) float64 {
		r := NewRegistry(sim.Second)
		tr := r.Tracker("web", 2, SLO{Threshold: 10 * sim.Millisecond, Target: 0.99})
		for i := 0; i < windows; i++ {
			tr.Record(sim.Time(i)*sim.Second, sim.Time(1+i%20)*sim.Millisecond)
			if i%3 == 0 {
				tr.RecordShed(sim.Time(i) * sim.Second)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if err := r.WriteJSONL(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(10), allocs(100); many != few {
		t.Fatalf("WriteJSONL allocates %v times for 10 windows and %v for 100", few, many)
	}
}
