package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the
// program's workload and metric tables in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(scenarios) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(scenarios))
	}
	for i, w := range bj.Workloads {
		if sc := scenarios[i]; w.Name != sc.name || w.Why != sc.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, sc.name, sc.why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
	}
}

// TestWorkloadsAtRegistrySize runs every workload at scale 1 through
// both passes, probes included. Every check must pass: repeated reps
// and every observer variant give the same digest, and the reference
// reps match reference.go. Every metric BENCHMARK.json names must be
// emitted with its unit for every workload, the records must survive a
// JSON round trip, and a file compared with itself must show no
// regression.
func TestWorkloadsAtRegistrySize(t *testing.T) {
	b := newBench(1, 0, io.Discard)
	b.scale = 1
	recs := b.execute(scenarios, -1)
	for _, p := range b.problems {
		t.Error(p)
	}
	if b.failed != 0 || b.attempted == 0 {
		t.Errorf("%d of %d reps failed", b.failed, b.attempted)
	}

	bj := loadBenchmarkJSON(t)
	units := map[string]string{}
	for _, m := range bj.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		units[m.Name] = m.Unit
	}
	line := b.result(recs, true)
	for _, sc := range scenarios {
		for name, unit := range units {
			got, ok := line.Metrics[sc.name+"/"+name]
			if !ok || got.Unit != unit {
				t.Errorf("%s: metric %s emitted as %+v (present %v), want unit %s", sc.name, name, got, ok, unit)
			}
		}
	}

	path := filepath.Join(t.TempDir(), "records.json")
	if err := writeRecords(path, b.manifest(scenarios), recs); err != nil {
		t.Fatal(err)
	}
	back, err := readRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, recs) {
		t.Error("records changed in a JSON round trip")
	}
	var out bytes.Buffer
	if code := compareFiles([]string{path, path}, &out, io.Discard); code != 0 {
		t.Errorf("comparing a file with itself exits %d:\n%s", code, out.String())
	}
}

// TestCheckFailsChangedResults is the negative control for the digest
// check the passes rely on: a rep whose simulated results differ from
// the first rep of its instance, or that saw an auditor violation,
// fails.
func TestCheckFailsChangedResults(t *testing.T) {
	b := newBench(1, 0, io.Discard)
	sc := scenarios[0]
	want := map[string]string{}
	clean := map[string]float64{"invariant.violations": 0}
	for i, c := range []struct {
		r  *rep
		ok bool
	}{
		{&rep{seed: 4, digest: "a", layers: clean}, true},
		{&rep{seed: 4, digest: "a", layers: clean}, true},
		{&rep{seed: 5, digest: "b", layers: clean}, true}, // another instance
		{&rep{seed: 4, digest: "b", layers: clean}, false},
		{&rep{seed: 4, digest: "a", layers: map[string]float64{"invariant.violations": 1}}, false},
	} {
		if got := b.check(sc, lit, c.r, want); got != c.ok {
			t.Errorf("rep %d: check = %v, want %v", i, got, c.ok)
		}
	}
	if b.failed != 2 || len(b.problems) != 2 {
		t.Errorf("failed %d with %d problems, want 2 and 2", b.failed, len(b.problems))
	}
}

// TestSummarizeMatchesPython pins the quartiles to the values Python's
// statistics.quantiles(values, n=4) gives.
func TestSummarizeMatchesPython(t *testing.T) {
	for _, c := range []struct {
		in             []float64
		q1, median, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 3, 6, 9},
		{[]float64{5, 7}, 4.5, 6, 7.5},
	} {
		s := summarize(c.in)
		if s.q1 != c.q1 || s.median != c.median || s.q3 != c.q3 || s.n != len(c.in) {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", c.in, s, c.q1, c.median, c.q3)
		}
	}
}
