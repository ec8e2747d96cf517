package experiment

import (
	"encoding/json"
	"strings"
	"testing"

	"perfiso/internal/stats"
)

func marshalT(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// A bench-vs-bench diff surfaces changed deterministic cells, changed
// p99s, and membership changes, and counts the cells that matched.
func TestDiffBench(t *testing.T) {
	old := Bench{Suite: "pisobench", Parallel: 4, Events: 100, Experiments: []BenchExperiment{
		{ID: "fig2", Events: 60, EventsPerSec: 1e6, Rows: []stats.Row{
			{Table: "T", Label: "SMP", Metric: "Norm", Value: 100},
			{Table: "T", Label: "PIso", Metric: "Norm", Value: 93},
		}},
		{ID: "gone", Events: 40, EventsPerSec: 1e6},
	}}
	new := Bench{Suite: "pisobench", Parallel: 8, Events: 120, Experiments: []BenchExperiment{
		{ID: "fig2", Events: 65, EventsPerSec: 2e6, Rows: []stats.Row{
			{Table: "T", Label: "SMP", Metric: "Norm", Value: 100},
			{Table: "T", Label: "PIso", Metric: "Norm", Value: 95},
		}, Latency: []LatencySummary{{Config: "PIso", Tenants: []TenantLatency{
			{Name: "web", P99NS: 5_000_000},
		}}}},
		{ID: "fresh", Events: 55, EventsPerSec: 1e6},
	}}
	// Give the old report a latency stream so the p99 comparison fires.
	old.Experiments[0].Latency = []LatencySummary{{Config: "PIso", Tenants: []TenantLatency{
		{Name: "web", P99NS: 4_000_000},
	}}}

	out, err := Diff(marshalT(t, old), marshalT(t, new), "old.json", "new.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"added experiment: fresh",
		"removed experiment: gone",
		"events changed: fig2 dispatched 60 -> 65",
		"PIso", "Norm", // the changed cell
		"+25.0%", // p99 4ms -> 5ms
		"1 cells compared equal",
		"Throughput",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "SMP") && strings.Contains(out, "Changed results") {
		// The unchanged SMP cell must not appear in the changed-results table.
		sect := out[strings.Index(out, "Changed results"):]
		if i := strings.Index(sect, "Throughput"); i >= 0 {
			sect = sect[:i]
		}
		if strings.Contains(sect, "SMP") {
			t.Errorf("unchanged cell listed as changed:\n%s", sect)
		}
	}
}

// Two identical bench reports diff to "no changes".
func TestDiffBenchIdentical(t *testing.T) {
	b := Bench{Suite: "pisobench", Experiments: []BenchExperiment{
		{ID: "fig2", Events: 60, EventsPerSec: 1e6, Rows: []stats.Row{
			{Table: "T", Label: "SMP", Metric: "Norm", Value: 100},
		}},
	}}
	data := marshalT(t, b)
	out, err := Diff(data, data, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no result-cell changes") {
		t.Errorf("identical reports should diff clean:\n%s", out)
	}
	if strings.Contains(out, "events changed") {
		t.Errorf("identical reports reported changed events:\n%s", out)
	}
}

// Mismatched or unrecognized inputs fail with a pointed error.
func TestDiffRejectsMismatchedSuites(t *testing.T) {
	bench := marshalT(t, Bench{Suite: "pisobench"})
	// The retired perf baselines are refused like any other suite.
	perf := []byte(`{"suite":"pisobench-perf","event_queue":"calendar","reps":3,"scenarios":[]}`)
	if _, err := Diff(bench, perf, "a", "b"); err == nil || !strings.Contains(err.Error(), `unknown suite "pisobench-perf"`) {
		t.Errorf("bench-vs-perf diff: err = %v, want unknown suite", err)
	}
	if _, err := Diff([]byte(`{"hello":1}`), bench, "a", "b"); err == nil {
		t.Error("non-report input should fail")
	}
	if _, err := Diff([]byte(`not json`), bench, "a", "b"); err == nil {
		t.Error("malformed input should fail")
	}
}
