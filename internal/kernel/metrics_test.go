package kernel

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/metrics"
	"perfiso/internal/proc"
	"perfiso/internal/sim"
)

// metricsRun boots a small PIso machine with observability on, runs a
// lender/borrower workload, and returns the kernel.
func metricsRun(t *testing.T, opts Options) *Kernel {
	t.Helper()
	k := New(smallMachine(), core.PIso, opts)
	a := k.NewSPU("a", 1)
	b := k.NewSPU("b", 1)
	k.Boot()
	for i := 0; i < 4; i++ {
		k.Spawn(proc.New(k, b.ID(), "hog", []proc.Step{proc.Compute{D: 1 * sim.Second}}))
	}
	k.Spawn(proc.New(k, a.ID(), "blinker", proc.Seq(
		proc.Loop(5, proc.Compute{D: 10 * sim.Millisecond}, proc.Sleep{D: 90 * sim.Millisecond}),
	)))
	k.Run()
	return k
}

// Observability is off by default and a kernel without it exports
// nothing — the same contract as tracing.
func TestMetricsOffByDefault(t *testing.T) {
	k := New(smallMachine(), core.PIso, Options{})
	if k.Metrics() != nil {
		t.Fatal("metrics should be off by default")
	}
	var buf bytes.Buffer
	if err := k.WriteMetrics(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("WriteMetrics on metrics-off kernel wrote %d bytes, err %v", buf.Len(), err)
	}
	if k.UsageTable() != nil {
		t.Fatal("UsageTable on metrics-off kernel")
	}
}

// A booted kernel samples every per-SPU series on the simulation clock
// and the scheduler's loan activity lands in the registry.
func TestKernelRegistersAndSamplesSeries(t *testing.T) {
	k := metricsRun(t, Options{MetricsPeriod: 50 * sim.Millisecond})
	reg := k.Metrics()
	if reg == nil {
		t.Fatal("metrics not enabled")
	}
	for _, spu := range []core.SPUID{core.FirstUserID, core.FirstUserID + 1} {
		for _, name := range []string{
			metrics.KeyCPUUsed, metrics.KeyCPUTime, metrics.KeyMemResident,
			metrics.KeyMemLoaned, metrics.KeyDiskQueue, metrics.KeyDiskSectors,
		} {
			s := reg.FindSeries(name, spu)
			if s == nil {
				t.Fatalf("series %s not registered for spu%d", name, spu)
			}
			if s.Len() == 0 {
				t.Fatalf("series %s spu%d never sampled", name, spu)
			}
		}
	}
	// b's hogs outnumber its CPUs, so it borrows from a: loans must be
	// counted and cpu.time must accumulate for both SPUs.
	if reg.FindCounter(metrics.KeySchedLoans, core.FirstUserID+1).Value() == 0 {
		t.Fatal("no loans counted for the overloaded SPU")
	}
	ct := reg.FindSeries(metrics.KeyCPUTime, core.FirstUserID+1)
	if _, v := ct.At(ct.Len() - 1); v <= 0 {
		t.Fatal("cpu.time series never advanced")
	}
}

// The JSONL and Chrome-trace exports of a real run are valid and carry
// one track per SPU.
func TestKernelExports(t *testing.T) {
	k := metricsRun(t, Options{MetricsPeriod: 50 * sim.Millisecond, TraceCapacity: 4096})
	var jl bytes.Buffer
	if err := k.WriteMetrics(&jl); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(jl.String()), "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("invalid JSONL line: %s", line)
		}
	}
	if !strings.Contains(jl.String(), `"spu_name":"a"`) || !strings.Contains(jl.String(), `"spu_name":"b"`) {
		t.Fatalf("JSONL missing SPU names:\n%.400s", jl.String())
	}

	var ct bytes.Buffer
	if err := k.WriteChromeTrace(&ct); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(ct.Bytes()) {
		t.Fatal("chrome trace is not valid JSON")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(ct.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	tracks := map[string]bool{}
	var instants int
	for _, e := range doc.TraceEvents {
		if e["ph"] == "M" {
			tracks[e["args"].(map[string]any)["name"].(string)] = true
		}
		if e["ph"] == "i" {
			instants++
		}
	}
	for _, want := range []string{"machine", "a", "b"} {
		if !tracks[want] {
			t.Fatalf("missing process track %q in %v", want, tracks)
		}
	}
	if instants == 0 {
		t.Fatal("tracer events did not become instant markers")
	}

	tbl := k.UsageTable()
	if tbl == nil || tbl.NumRows() != 2 {
		t.Fatalf("usage table rows = %v", tbl)
	}
	tl := k.Timeline()
	if len(tl.Labels()) != 4 { // cpu/mem x 2 SPUs
		t.Fatalf("timeline labels = %v", tl.Labels())
	}
}

// Turning metrics on must not change simulation results: sampling only
// reads machine state. Identical workloads with and without the
// registry finish at the identical simulated instant.
func TestMetricsDoNotPerturbSimulation(t *testing.T) {
	run := func(opts Options) sim.Time {
		k := New(smallMachine(), core.PIso, opts)
		a := k.NewSPU("a", 1)
		b := k.NewSPU("b", 1)
		k.Boot()
		for i := 0; i < 4; i++ {
			k.Spawn(proc.New(k, b.ID(), "hog", []proc.Step{proc.Compute{D: 300 * sim.Millisecond}}))
		}
		k.Spawn(proc.New(k, a.ID(), "worker", []proc.Step{
			proc.Touch{Pages: 64}, proc.Compute{D: 100 * sim.Millisecond},
		}))
		return k.Run()
	}
	off := run(Options{})
	on := run(Options{MetricsPeriod: 10 * sim.Millisecond})
	if off != on {
		t.Fatalf("metrics perturbed the simulation: makespan %v (off) vs %v (on)", off, on)
	}
}

// §2.1: an SPU created after Boot (NewSPU + Rebalance) gets the same
// sampled series as the SPUs that existed at boot, so it shows up in the
// metrics JSONL, the usage table and the timeline.
func TestLateSPUGetsSeries(t *testing.T) {
	k := New(smallMachine(), core.PIso, Options{MetricsPeriod: 50 * sim.Millisecond})
	k.NewSPU("a", 1)
	b := k.NewSPU("b", 1)
	k.Boot()
	k.Spawn(proc.New(k, b.ID(), "bg", []proc.Step{proc.Compute{D: 600 * sim.Millisecond}}))
	k.Engine().At(100*sim.Millisecond, "grow", func() {
		late := k.NewSPU("late", 1)
		k.Rebalance()
		k.Spawn(proc.New(k, late.ID(), "job", []proc.Step{proc.Compute{D: 300 * sim.Millisecond}}))
	})
	k.Run()

	var jl bytes.Buffer
	if err := k.WriteMetrics(&jl); err != nil {
		t.Fatal(err)
	}
	var cpuUsed bool
	for _, line := range strings.Split(strings.TrimSpace(jl.String()), "\n") {
		var rec struct {
			Type    string    `json:"type"`
			Name    string    `json:"name"`
			SPUName string    `json:"spu_name"`
			V       []float64 `json:"v"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if rec.Type == "series" && rec.Name == metrics.KeyCPUUsed && rec.SPUName == "late" {
			cpuUsed = len(rec.V) > 0
		}
	}
	if !cpuUsed {
		t.Fatalf("no sampled cpu.used series for the late SPU:\n%.600s", jl.String())
	}
	tbl := k.UsageTable()
	if tbl.NumRows() != 3 || !strings.Contains(tbl.String(), "late") {
		t.Fatalf("usage table lacks the late SPU:\n%s", tbl)
	}
	tl := k.Timeline()
	if labels := strings.Join(tl.Labels(), ","); labels != "cpu a,mem a,cpu b,mem b,cpu late,mem late" {
		t.Fatalf("timeline labels = %s", labels)
	}
	// The late rows are zero-padded to the boot-time rows' sample
	// instants: 100 ms at 50 ms per sample is two leading zeros.
	a, late := tl.Samples("cpu a"), tl.Samples("cpu late")
	if len(late) != len(a) || late[0] != 0 || late[1] != 0 {
		t.Fatalf("late cpu row %v does not line up with %d boot-time samples", late, len(a))
	}
}
