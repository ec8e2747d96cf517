package control

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"testing"

	"perfiso/internal/latency"
	"perfiso/internal/sim"
)

// The line shapes the log was written from before it went through the
// artifact encoder, kept as the reference: encoding/json over these
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

type headerLine struct {
	Type     string    `json:"type"`
	PeriodMS jsonFloat `json:"period_ms"`
	Step     jsonFloat `json:"step"`
	Decay    jsonFloat `json:"decay"`
	Floor    jsonFloat `json:"floor"`
	MaxBoost jsonFloat `json:"max_boost"`
	HighBurn jsonFloat `json:"high_burn"`
	LowBurn  jsonFloat `json:"low_burn"`
	Ticks    int64     `json:"ticks"`
	Retunes  int64     `json:"retunes"`
	Boosts   int64     `json:"boosts"`
	Releases int64     `json:"releases"`
	Shed     int64     `json:"shed,omitempty"`
	Trips    int64     `json:"trips,omitempty"`
}

type actionLine struct {
	Type   string    `json:"type"`
	TMS    jsonFloat `json:"t_ms"`
	Action string    `json:"action"`
	Target string    `json:"target"`
	Old    jsonFloat `json:"old"`
	New    jsonFloat `json:"new"`
	Burn   jsonFloat `json:"burn,omitempty"`
}

func referenceJSONL(w io.Writer, c *Controller) error {
	enc := json.NewEncoder(w)
	ms := func(t sim.Time) jsonFloat { return jsonFloat(float64(t) / float64(sim.Millisecond)) }
	if err := enc.Encode(headerLine{"controller", ms(c.lat.Window()), jsonFloat(c.cfg.Step), jsonFloat(c.cfg.Decay),
		Floor, jsonFloat(c.cfg.MaxBoost), HighBurn, LowBurn, c.Stat.Ticks, c.Stat.Retunes, c.Stat.Boosts,
		c.Stat.Releases, c.Stat.Shed, c.Stat.Trips}); err != nil {
		return err
	}
	for _, a := range c.actions {
		if err := enc.Encode(actionLine{"control", ms(a.At), a.Action, a.Target,
			jsonFloat(a.Old), jsonFloat(a.New), jsonFloat(a.Burn)}); err != nil {
			return err
		}
	}
	return nil
}

func randFloat(rng *rand.Rand) float64 {
	switch rng.IntN(4) {
	case 0:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1e-7, 1e21}[rng.IntN(7)]
	case 1:
		return math.Float64frombits(rng.Uint64())
	default:
		return rng.Float64() * 4
	}
}

// randomController holds a random configuration, totals (shed and
// trips zero or not) and a decision log naming actions and targets
// from names.
func randomController(rng *rand.Rand, actions int, names []string) *Controller {
	count := func() int64 {
		if rng.IntN(3) == 0 {
			return 0
		}
		return rng.Int64N(1 << 40)
	}
	c := &Controller{
		cfg: Config{Step: randFloat(rng), Decay: randFloat(rng), MaxBoost: randFloat(rng)},
		lat: latency.NewRegistry(sim.Time(rng.Int64N(int64(10 * sim.Second)))),
		Stat: Stats{Ticks: count(), Retunes: count(), Boosts: count(), Releases: count(),
			Shed: count(), Trips: count()},
	}
	for i := 0; i < actions; i++ {
		c.actions = append(c.actions, Action{At: sim.Time(rng.Int64N(int64(100 * sim.Second))),
			Action: names[rng.IntN(len(names))], Target: names[rng.IntN(len(names))],
			Old: randFloat(rng), New: randFloat(rng), Burn: randFloat(rng)})
	}
	return c
}

// Random controller logs — NaN, ±Inf and −0 in the configuration and
// the decisions, burn and the shed and trip totals zero or not — are
// byte-identical to the struct encoding.
func TestWriteJSONLMatchesStructEncoding(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 4))
	for round := 0; round < 500; round++ {
		c := randomController(rng, rng.IntN(8), []string{"boost", "spu3", `q"<&>`, "\x01\u2028\xff", ""})
		var want, got bytes.Buffer
		if err := referenceJSONL(&want, c); err != nil {
			t.Fatal(err)
		}
		if err := WriteJSONL(&got, c); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("round %d: log differs from the struct encoding:\ngot:\n%s\nwant:\n%s", round, got.Bytes(), want.Bytes())
		}
	}
}

// Writing a log ten times as long costs no more allocations. (A string
// that needs escaping allocates in json.Marshal; the controller's
// action and target names never do.)
func TestWriteJSONLAllocationsDoNotGrowWithActions(t *testing.T) {
	allocs := func(n int) float64 {
		c := randomController(rand.New(rand.NewPCG(31, 5)), n, []string{"boost", "release", "breaker-open", "spu3", "disk0"})
		return testing.AllocsPerRun(20, func() {
			if err := WriteJSONL(io.Discard, c); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(10), allocs(100); many != few {
		t.Fatalf("WriteJSONL allocates %v times for 10 actions and %v for 100", few, many)
	}
}
