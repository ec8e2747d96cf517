package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"perfiso/internal/sim"
	"perfiso/internal/trace"
)

// A nil registry and nil handles are valid no-op sinks — the same
// contract as trace.Tracer. Instrumented code must never have to branch
// on "are metrics enabled".
func TestNilRegistryAndHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter(KeySchedLoans, 2)
	g := r.Gauge(KeyMemFree, NoSPU, func() float64 { return 1 })
	d := r.Distribution(KeySchedRevokeLatency, 2)
	s := r.Series(KeyCPUUsed, 2, func() float64 { return 1 })
	if c != nil || g != nil || d != nil || s != nil {
		t.Fatal("nil registry returned non-nil handles")
	}
	c.Inc()
	c.Add(5)
	c.AddTime(sim.Second)
	d.Observe(1)
	d.ObserveTime(sim.Millisecond)
	if c.Value() != 0 || g.Value() != 0 || d.N() != 0 || d.Quantile(0.5) != 0 || d.Mean() != 0 {
		t.Fatal("nil handles returned non-zero values")
	}
	r.Sample()
	if r.Counters() != nil || r.AllSeries() != nil || r.Period() != 0 {
		t.Fatal("nil registry accessors returned data")
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf, nil); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteJSONL wrote %q, err %v", buf.String(), err)
	}
	if err := r.WriteChromeTrace(&buf, nil, nil); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteChromeTrace wrote %q, err %v", buf.String(), err)
	}
	if tl := r.UsageTimeline(nil); len(tl.Labels()) != 0 {
		t.Fatal("nil UsageTimeline has rows")
	}
}

// Registering the same (name, spu) twice returns the same handle, so
// subsystems can register independently without double counting.
func TestRegistrationDedup(t *testing.T) {
	eng := sim.NewEngine()
	r := New(eng, 0)
	if r.Period() != DefaultPeriod {
		t.Fatalf("default period = %v", r.Period())
	}
	a := r.Counter(KeySchedLoans, 2)
	b := r.Counter(KeySchedLoans, 2)
	if a != b {
		t.Fatal("same key gave two counters")
	}
	if r.Counter(KeySchedLoans, 3) == a {
		t.Fatal("different SPU shared a counter")
	}
	a.Inc()
	b.Add(2)
	if got := r.FindCounter(KeySchedLoans, 2).Value(); got != 3 {
		t.Fatalf("deduped counter = %d, want 3", got)
	}
	d1 := r.Distribution(KeySchedRevokeLatency, 2)
	if r.Distribution(KeySchedRevokeLatency, 2) != d1 {
		t.Fatal("same key gave two distributions")
	}
	s1 := r.Series(KeyCPUUsed, 2, func() float64 { return 1 })
	if r.Series(KeyCPUUsed, 2, func() float64 { return 9 }) != s1 {
		t.Fatal("same key gave two series")
	}
}

// Sample stamps the simulation clock and evaluates every series closure.
func TestSampleOnSimClock(t *testing.T) {
	eng := sim.NewEngine()
	r := New(eng, 10*sim.Millisecond)
	var v float64
	s := r.Series(KeyCPUUsed, 2, func() float64 { return v })
	ticker := eng.Every(r.Period(), "metrics", func() {
		v += 1
		r.Sample()
	})
	eng.RunUntil(35 * sim.Millisecond)
	ticker.Stop()
	if s.Len() != 3 {
		t.Fatalf("samples = %d, want 3", s.Len())
	}
	at, val := s.At(1)
	if at != 20*sim.Millisecond || val != 2 {
		t.Fatalf("sample 1 = (%v, %v)", at, val)
	}
}

func TestDistributionQuantiles(t *testing.T) {
	eng := sim.NewEngine()
	r := New(eng, 0)
	d := r.Distribution(KeySchedRevokeLatency, NoSPU)
	for i := 1; i <= 100; i++ {
		d.Observe(float64(i))
	}
	if d.N() != 100 {
		t.Fatalf("N = %d", d.N())
	}
	if p99 := d.Quantile(0.99); p99 < 98 || p99 > 100 {
		t.Fatalf("p99 = %v", p99)
	}
	if d.Quantile(1) != 100 || d.Mean() != 50.5 {
		t.Fatalf("max %v mean %v", d.Quantile(1), d.Mean())
	}
}

func sampleRegistry(t *testing.T) (*Registry, Names) {
	t.Helper()
	eng := sim.NewEngine()
	r := New(eng, 10*sim.Millisecond)
	names := Names{2: "alice", 3: "bob"}
	r.Counter(KeySchedLoans, 2).Add(4)
	r.Counter(KeySchedRevocations, 2).Add(1)
	r.Gauge(KeyMemFree, NoSPU, func() float64 { return 128 })
	d := r.Distribution(KeySchedRevokeLatency, 2)
	d.Observe(0.001)
	d.Observe(0.003)
	var load float64
	r.Series(KeyCPUUsed, 2, func() float64 { load++; return load })
	r.Series(KeyCPUUsed, 3, func() float64 { return 1 })
	ticker := eng.Every(r.Period(), "metrics", r.Sample)
	eng.RunUntil(50 * sim.Millisecond)
	ticker.Stop()
	return r, names
}

// JSONL export: every line is valid JSON, lines appear in registration
// order, and repeated exports of the same registry are byte-identical.
func TestWriteJSONL(t *testing.T) {
	r, names := sampleRegistry(t)
	var a, b bytes.Buffer
	if err := r.WriteJSONL(&a, names); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSONL(&b, names); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("repeated JSONL exports differ")
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != 6 { // 2 counters + 1 gauge + 1 dist + 2 series
		t.Fatalf("lines = %d:\n%s", len(lines), a.String())
	}
	for _, l := range lines {
		if !json.Valid([]byte(l)) {
			t.Fatalf("invalid JSON line: %s", l)
		}
	}
	var first counterLine
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Name != KeySchedLoans || first.SPUName != "alice" || first.Value != 4 {
		t.Fatalf("first line = %+v", first)
	}
	var series structSeriesLine
	if err := json.Unmarshal([]byte(lines[4]), &series); err != nil {
		t.Fatal(err)
	}
	if series.Type != "series" || len(series.Values) != 5 || series.TimesMS[0] != 10 {
		t.Fatalf("series line = %+v", series)
	}
}

// Chrome trace export: the whole file is valid JSON in trace-event
// format, has one process (track) per SPU plus the machine, and carries
// the sampled counters and tracer instants.
func TestWriteChromeTrace(t *testing.T) {
	r, names := sampleRegistry(t)
	eng := sim.NewEngine()
	tr := trace.New(eng, 16)
	tr.Emit(trace.Sched, "alice", "loan", "cpu 3")
	tr.Emit(trace.Mem, "pager", "evict", "")

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf, tr.Events(), names); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid trace JSON:\n%s", buf.String())
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	pids := map[float64]string{}
	var counters, instants int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "M":
			args := e["args"].(map[string]any)
			pids[e["pid"].(float64)] = args["name"].(string)
		case "C":
			counters++
		case "i":
			instants++
		}
	}
	if pids[0] != "machine" || pids[3] != "alice" || pids[4] != "bob" {
		t.Fatalf("process tracks = %v", pids)
	}
	if counters != 10 { // 2 series x 5 samples
		t.Fatalf("counter events = %d, want 10", counters)
	}
	if instants != 2 {
		t.Fatalf("instant events = %d, want 2", instants)
	}
	// The "alice" instant must land on alice's track, the anonymous one
	// on the machine track.
	var aliceInstant, machineInstant bool
	for _, e := range doc.TraceEvents {
		if e["ph"] != "i" {
			continue
		}
		args := e["args"].(map[string]any)
		if args["subject"] == "alice" && e["pid"].(float64) == 3 {
			aliceInstant = true
		}
		if args["subject"] == "pager" && e["pid"].(float64) == 0 {
			machineInstant = true
		}
	}
	if !aliceInstant || !machineInstant {
		t.Fatalf("instant routing wrong:\n%s", buf.String())
	}

	var again bytes.Buffer
	if err := r.WriteChromeTrace(&again, tr.Events(), names); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("repeated chrome-trace exports differ")
	}
}

// The usage timeline turns cumulative disk sectors into per-interval
// deltas and keys rows by SPU name in id order.
func TestUsageTimelineAndTable(t *testing.T) {
	eng := sim.NewEngine()
	r := New(eng, 10*sim.Millisecond)
	names := Names{2: "alice"}
	var cpu, sectors float64
	r.Series(KeyCPUUsed, 2, func() float64 { cpu += 1; return cpu })
	r.Series(KeyMemResident, 2, func() float64 { return 64 })
	r.Series(KeyDiskSectors, 2, func() float64 { sectors += 100; return sectors })
	ticker := eng.Every(r.Period(), "metrics", r.Sample)
	eng.RunUntil(30 * sim.Millisecond)
	ticker.Stop()

	tl := r.UsageTimeline(names)
	wantLabels := []string{"cpu alice", "mem alice", "disk alice"}
	if got := tl.Labels(); len(got) != 3 || got[0] != wantLabels[0] || got[2] != wantLabels[2] {
		t.Fatalf("labels = %v", got)
	}
	disk := tl.Samples("disk alice")
	for i, v := range disk {
		if v != 100 {
			t.Fatalf("disk delta[%d] = %v, want 100 (cumulative not differenced)", i, v)
		}
	}

	table := r.UsageTable(names)
	if table.NumRows() != 1 || table.Cell(0, 0) != "alice" {
		t.Fatalf("usage table:\n%s", table.String())
	}
	if table.Cell(0, 2) != "3.00" { // cpu peak after 3 increments
		t.Fatalf("cpu peak cell = %q", table.Cell(0, 2))
	}
	if table.Cell(0, 5) != "300" {
		t.Fatalf("disk sectors cell = %q", table.Cell(0, 5))
	}
}

// The canonical key namespace stays collision-free and well-formed:
// every key is unique, lowercase, and "subsystem.metric"-shaped, so
// exports from different subsystems can never shadow each other.
func TestKeysAreUniqueAndWellFormed(t *testing.T) {
	if len(Keys) == 0 {
		t.Fatal("no canonical keys registered")
	}
	seen := map[string]bool{}
	for _, k := range Keys {
		if seen[k] {
			t.Fatalf("duplicate metric key %q", k)
		}
		seen[k] = true
		if k != strings.ToLower(k) {
			t.Fatalf("key %q is not lowercase", k)
		}
		dot := strings.IndexByte(k, '.')
		if dot <= 0 || dot == len(k)-1 {
			t.Fatalf("key %q is not subsystem.metric shaped", k)
		}
	}
}
