package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"perfiso/internal/experiment"
)

// Every -only id the seed binary accepted, plus the new registry ids,
// must resolve through the registry.
func TestOnlyIDsResolve(t *testing.T) {
	legacy := []string{"fig2", "fig3", "fig5", "fig7", "tab3", "tab4"}
	for _, id := range append(legacy, experiment.IDs()...) {
		if _, ok := experiment.Lookup(id); !ok {
			t.Errorf("-only %s does not resolve", id)
		}
	}
}

func TestRunUnknownIDFails(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(config{only: "bogus", parallel: 1}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown experiment") {
		t.Fatalf("stderr = %q", errOut.String())
	}
}

func TestRunList(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(config{list: true}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	for _, id := range experiment.IDs() {
		if !strings.Contains(out.String(), id) {
			t.Errorf("-list output missing %q", id)
		}
	}
}

// End-to-end: the short suite under parallel workers writes a
// well-formed JSON benchmark report with non-trivial contents.
func TestRunShortParallelWritesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full short suite")
	}
	dir := t.TempDir()
	var out, errOut strings.Builder
	code := run(config{short: true, parallel: 2, outDir: dir}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Figure 2") {
		t.Fatal("stdout missing Figure 2 table")
	}
	if !strings.Contains(errOut.String(), "skipping ablations") {
		t.Fatalf("stderr missing -short note: %q", errOut.String())
	}

	data, err := os.ReadFile(filepath.Join(dir, "bench.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b experiment.Bench
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if b.Suite != "pisobench" || b.Parallel != 2 || !b.Short {
		t.Fatalf("report metadata: %+v", b)
	}
	if len(b.Experiments) != 5 {
		t.Fatalf("short suite recorded %d experiments, want 5", len(b.Experiments))
	}
	if b.Events == 0 || b.WallSeconds <= 0 {
		t.Fatalf("missing totals: events=%d wall=%g", b.Events, b.WallSeconds)
	}
	for _, e := range b.Experiments {
		if e.Events == 0 || e.WallSeconds <= 0 || e.EventsPerSec <= 0 {
			t.Fatalf("experiment %q has empty perf data: %+v", e.ID, e)
		}
		if len(e.Rows) == 0 {
			t.Fatalf("experiment %q has no headline rows", e.ID)
		}
	}
}

// -soak runs the seeded sweep and reports a clean exit when every case
// holds the invariants.
func TestRunSoakSweep(t *testing.T) {
	var out, errOut strings.Builder
	code := run(config{soak: true, soakRuns: 2, soakSeed: 1, soakCase: -1}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if got := strings.Count(out.String(), "soak case"); got != 2 {
		t.Fatalf("expected 2 case lines, got %d:\n%s", got, out.String())
	}
	if !strings.Contains(errOut.String(), "2 cases clean") {
		t.Fatalf("stderr = %q", errOut.String())
	}
}

// -soak-case replays one case, optionally under an overridden fault
// schedule — the repro command path.
func TestRunSoakSingleCase(t *testing.T) {
	var out, errOut strings.Builder
	cfg := config{soak: true, soakSeed: 1, soakCase: 0, soakFaults: "disk-slow:0:50ms:200ms:2"}
	if code := run(cfg, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), `faults="disk-slow:0:50ms:200ms:2"`) {
		t.Fatalf("replay ignored the fault override:\n%s", out.String())
	}
}

func TestRunSoakFaultsRequiresCase(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(config{soak: true, soakCase: -1, soakFaults: "disk-slow:0:1s:0s"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestRunSoakBadFaultSpec(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(config{soak: true, soakCase: 0, soakFaults: "garbage"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// -only through an alias prints just that section's table.
func TestRunOnlyAliasPrintsOneSection(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pmake8 batch")
	}
	var out, errOut strings.Builder
	if code := run(config{only: "fig3", parallel: 1}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if strings.Contains(out.String(), "Figure 2") {
		t.Fatal("-only fig3 printed the Figure 2 table")
	}
	if !strings.Contains(out.String(), "Figure 3") {
		t.Fatal("-only fig3 missing the Figure 3 table")
	}
}

// -only open-arrival with -out: the directory holds exactly the bench
// report and the four JSONL artifacts, the latency artifact and the
// bench report's embedded latency summaries both materialize, and the
// open-arrival experiment leaves the controller artifact empty.
func TestRunOpenArrivalWritesLatencyArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the open-arrival experiment")
	}
	dir := t.TempDir()
	var out, errOut strings.Builder
	cfg := config{only: "open-arrival", parallel: 1, outDir: dir}
	if code := run(cfg, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "open-arrival tail latency") {
		t.Fatalf("stdout missing the tenant table:\n%s", out.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{"attribution.jsonl", "bench.json", "controller.jsonl", "latency.jsonl", "metrics.jsonl"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("-out wrote %v, want %v", names, want)
	}
	data, err := os.ReadFile(filepath.Join(dir, "latency.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"type":"latency"`, `"type":"slo"`, `"type":"latency_window"`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("latency artifact missing %s lines", want)
		}
	}
	if ctl, err := os.ReadFile(filepath.Join(dir, "controller.jsonl")); err != nil || len(ctl) != 0 {
		t.Fatalf("controller artifact: %d bytes, err %v; open-arrival runs no controller", len(ctl), err)
	}
	var b experiment.Bench
	raw, err := os.ReadFile(filepath.Join(dir, "bench.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Experiments) != 1 || len(b.Experiments[0].Latency) != 6 {
		t.Fatalf("bench report latency summaries: %+v", b.Experiments)
	}
}

// -diff on two bench reports prints the comparison and exits 0; bad
// usage and unreadable files exit 2.
func TestRunDiff(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	write := func(path string, b experiment.Bench) {
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(oldPath, experiment.Bench{Suite: "pisobench", Experiments: []experiment.BenchExperiment{{ID: "fig2", Events: 10}}})
	write(newPath, experiment.Bench{Suite: "pisobench", Experiments: []experiment.BenchExperiment{{ID: "fig2", Events: 12}}})

	var out, errOut strings.Builder
	cfg := config{diff: true, diffArgs: []string{oldPath, newPath}}
	if code := run(cfg, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "events changed: fig2 dispatched 10 -> 12") {
		t.Fatalf("diff output:\n%s", out.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run(config{diff: true, diffArgs: []string{oldPath}}, &out, &errOut); code != 2 {
		t.Fatalf("one-arg -diff: exit %d, want 2", code)
	}
	if code := run(config{diff: true, diffArgs: []string{oldPath, filepath.Join(dir, "absent.json")}}, &out, &errOut); code != 2 {
		t.Fatalf("missing file -diff: exit %d, want 2", code)
	}
}
