package experiment

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// The instrumented experiments run with the registry on and distill one
// summary per kernel configuration, in run order.
func TestCPUIsoCollectsMetricSummaries(t *testing.T) {
	r := RunCPUIso()
	if len(r.Metrics) != len(Schemes) {
		t.Fatalf("got %d summaries, want one per scheme (%d)", len(r.Metrics), len(Schemes))
	}
	for i, s := range Schemes {
		ms := r.Metrics[i]
		if ms.Config != s.String() {
			t.Fatalf("summary %d config = %q, want %q", i, ms.Config, s.String())
		}
		var share float64
		for _, name := range []string{"ocean", "eda"} {
			if _, ok := ms.CPUShare[name]; !ok {
				t.Fatalf("%s summary missing CPU share for %q: %v", ms.Config, name, ms.CPUShare)
			}
			share += ms.CPUShare[name]
		}
		if math.Abs(share-1) > 1e-9 {
			t.Fatalf("%s CPU shares sum to %v, want 1", ms.Config, share)
		}
		if ms.jsonl == "" {
			t.Fatalf("%s summary carries no registry export", ms.Config)
		}
	}
	// SPU 2 is overcommitted, so performance isolation must have lent
	// it CPUs and revoked some when Ocean's gang woke.
	var piso MetricSummary
	for _, ms := range r.Metrics {
		if ms.Config == "PIso" {
			piso = ms
		}
	}
	if piso.Loans == 0 {
		t.Fatal("PIso run recorded no CPU loans")
	}
	if piso.Revocations > 0 && piso.RevocationP99Ms <= 0 {
		t.Fatalf("revocations happened but p99 latency is %v", piso.RevocationP99Ms)
	}
}

// The metrics artifact is part of the harness determinism contract:
// byte-identical at any -parallel level, valid JSONL, one header line
// per instrumented configuration.
func TestMetricsArtifactDeterministicAcrossParallel(t *testing.T) {
	specs := []Spec{}
	for _, id := range []string{"fig5", "fig7"} {
		s, ok := Lookup(id)
		if !ok {
			t.Fatalf("missing spec %q", id)
		}
		specs = append(specs, s)
	}
	render := func(parallel int) string {
		var buf bytes.Buffer
		if err := MetricsJSONL(RunAll(specs, parallel), &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("metrics artifact differs between -parallel 1 and 8:\n--- seq ---\n%.600s\n--- par ---\n%.600s", seq, par)
	}
	var headers int
	for _, line := range strings.Split(strings.TrimSpace(seq), "\n") {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("artifact line is not JSON: %s", line)
		}
		if obj["type"] == "experiment" {
			headers++
		}
	}
	// fig5 runs 3 configurations, fig7 runs 6 (3 schemes x balanced /
	// unbalanced).
	if headers != 9 {
		t.Fatalf("artifact has %d experiment headers, want 9", headers)
	}
	// Wall-clock never leaks into the artifact.
	if strings.Contains(seq, "wall") {
		t.Fatal("metrics artifact mentions wall time")
	}
}
