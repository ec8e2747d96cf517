package experiment

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand/v2"
	"testing"
)

// The line shapes the four JSONL artifacts were written from before
// they went through the artifact encoder, kept as the reference:
// encoding/json over these structs gives the bytes the writers must
// keep.

type metricsHeader struct {
	Type            string             `json:"type"`
	Experiment      string             `json:"experiment"`
	Config          string             `json:"config"`
	Loans           int64              `json:"loans"`
	Revocations     int64              `json:"revocations"`
	RevocationP99Ms float64            `json:"revocation_p99_ms"`
	CPUShare        map[string]float64 `json:"cpu_share"`
}

type attributionHeader struct {
	Type                   string `json:"type"`
	Experiment             string `json:"experiment"`
	Config                 string `json:"config"`
	Tasks                  int    `json:"tasks"`
	ConservationViolations int64  `json:"conservation_violations"`
}

type attributionProcLine struct {
	Type string `json:"type"`
	AttributionRow
}

type attributionTheftLine struct {
	Type string `json:"type"`
	TheftRow
}

type latencyHeader struct {
	Type       string `json:"type"`
	Experiment string `json:"experiment"`
	Config     string `json:"config"`
	Tenants    int    `json:"tenants"`
}

type controllerHeader struct {
	Type       string `json:"type"`
	Experiment string `json:"experiment"`
	Config     string `json:"config"`
}

// referenceJSONL writes the four artifacts as the struct encoding did,
// one after another.
func referenceJSONL(w io.Writer, results []Result) error {
	enc := json.NewEncoder(w)
	write := func(v any, body string) error {
		if err := enc.Encode(v); err != nil {
			return err
		}
		_, err := io.WriteString(w, body)
		return err
	}
	for _, r := range results {
		for _, ms := range r.Output.Metrics {
			if err := write(metricsHeader{"experiment", r.Spec.ID, ms.Config, ms.Loans, ms.Revocations,
				ms.RevocationP99Ms, ms.CPUShare}, ms.jsonl); err != nil {
				return err
			}
		}
	}
	for _, r := range results {
		for _, as := range r.Output.Attribution {
			if err := write(attributionHeader{"experiment", r.Spec.ID, as.Config, as.Tasks,
				as.ConservationViolations}, ""); err != nil {
				return err
			}
			for _, p := range as.Procs {
				if err := write(attributionProcLine{"proc", p}, ""); err != nil {
					return err
				}
			}
			for _, t := range as.Theft {
				if err := write(attributionTheftLine{"theft", t}, ""); err != nil {
					return err
				}
			}
			if as.spans != nil {
				if _, err := io.WriteString(w, as.spans()); err != nil {
					return err
				}
			}
		}
	}
	for _, r := range results {
		for _, ls := range r.Output.Latency {
			if err := write(latencyHeader{"experiment", r.Spec.ID, ls.Config, len(ls.Tenants)}, ls.jsonl); err != nil {
				return err
			}
		}
	}
	for _, r := range results {
		for _, cs := range r.Output.Controller {
			if err := write(controllerHeader{"experiment", r.Spec.ID, cs.Config}, cs.jsonl); err != nil {
				return err
			}
		}
	}
	return nil
}

// randomResults builds results whose names include strings that need
// escaping and whose numbers cover encoding/json's float formats.
func randomResults(rng *rand.Rand) []Result {
	names := []string{"PIso", "spu3", `q"<&>`, "\x01 \xff", ""}
	name := func() string { return names[rng.IntN(len(names))] }
	num := func() int64 { return rng.Int64N(1<<50) - 1<<49 }
	float := func() float64 {
		return []float64{0, 1e-7, 1e21, 0.5, -3, 123.456, rng.Float64()}[rng.IntN(7)]
	}
	var rs []Result
	for i := rng.IntN(4); i >= 0; i-- {
		var m Meter
		for j := rng.IntN(3); j > 0; j-- {
			share := map[string]float64{}
			for k := rng.IntN(4); k > 0; k-- {
				share[name()] = float()
			}
			m.Metrics = append(m.Metrics, MetricSummary{Config: name(), Loans: num(), Revocations: num(),
				RevocationP99Ms: float(), CPUShare: share, jsonl: "{\"series\":1}\n"})
		}
		for j := rng.IntN(3); j > 0; j-- {
			as := AttributionSummary{Config: name(), Tasks: rng.IntN(100), ConservationViolations: num()}
			for k := rng.IntN(3); k > 0; k-- {
				as.Procs = append(as.Procs, AttributionRow{Proc: name(), SPU: rng.IntN(9), Response: num(),
					Run: num(), Runnable: num(), MemWait: num(), DiskWait: num(), DiskQueue: num(),
					DiskService: num(), Backoff: num(), Swap: num(), Sleep: num(), Sync: num(),
					LockWait: num(), Ready: num()})
				as.Theft = append(as.Theft, TheftRow{Victim: name(), Culprit: name(), Resource: name(), Stolen: num()})
			}
			if rng.IntN(2) == 0 {
				as.spans = func() string { return "{\"span\":1}\n" }
			}
			m.Attribution = append(m.Attribution, as)
		}
		for j := rng.IntN(3); j > 0; j-- {
			m.Latency = append(m.Latency, LatencySummary{Config: name(),
				Tenants: make([]TenantLatency, rng.IntN(4)), jsonl: "{\"p99\":2}\n"})
		}
		for j := rng.IntN(3); j > 0; j-- {
			m.Controller = append(m.Controller, ControllerSummary{Config: name(), jsonl: "{\"ticks\":3}\n"})
		}
		rs = append(rs, Result{Spec: Spec{ID: name()}, Output: Output{Meter: m}})
	}
	return rs
}

// The four JSONL artifacts are byte-identical to the struct encoding:
// headers, proc and theft rows, cpu_share in sorted key order, and the
// runs' own exports between them.
func TestJSONLMatchesStructEncoding(t *testing.T) {
	rng := rand.New(rand.NewPCG(34, 1))
	for round := 0; round < 300; round++ {
		results := randomResults(rng)
		var want, got bytes.Buffer
		if err := referenceJSONL(&want, results); err != nil {
			t.Fatal(err)
		}
		for _, write := range []func([]Result, io.Writer) error{MetricsJSONL, ProfileJSONL, LatencyJSONL, ControllerJSONL} {
			if err := write(results, &got); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("round %d: artifacts differ from the struct encoding:\ngot:\n%s\nwant:\n%s", round, got.Bytes(), want.Bytes())
		}
	}
}
