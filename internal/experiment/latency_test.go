package experiment

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// The latency artifact is part of the harness determinism contract:
// byte-identical at any -parallel level, valid JSONL, one header line
// per configuration that ran with latency tracking on.
func TestLatencyArtifactDeterministicAcrossParallel(t *testing.T) {
	s, ok := Lookup("open-arrival")
	if !ok {
		t.Fatal("missing spec open-arrival")
	}
	specs := []Spec{s}
	render := func(parallel int) string {
		var buf bytes.Buffer
		if err := LatencyJSONL(RunAll(specs, parallel), &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("latency artifact differs between -parallel 1 and 8:\n--- seq ---\n%.600s\n--- par ---\n%.600s", seq, par)
	}
	var headers int
	types := make(map[string]int)
	for _, line := range strings.Split(strings.TrimSpace(seq), "\n") {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("artifact line is not JSON: %s", line)
		}
		kind, _ := obj["type"].(string)
		types[kind]++
		if kind == "experiment" {
			headers++
		}
	}
	// 4 solo runs + SMP + PIso.
	if headers != 6 {
		t.Fatalf("artifact has %d experiment headers, want 6", headers)
	}
	for _, kind := range []string{"latency", "slo", "latency_window"} {
		if types[kind] == 0 {
			t.Fatalf("artifact has no %q lines; types seen: %v", kind, types)
		}
	}
	// Wall-clock never leaks into the artifact.
	if strings.Contains(seq, "wall") {
		t.Fatal("latency artifact mentions wall time")
	}
}
