package latency

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"perfiso/internal/sim"
)

func TestTrackerSLOAndWindows(t *testing.T) {
	r := NewRegistry(sim.Second)
	tr := r.Tracker("web", 2, SLO{Threshold: 10 * sim.Millisecond, Target: 0.9})
	// Window 0: 3 good, 1 bad. Window 2: 1 good. Window 1 stays empty.
	tr.Record(100*sim.Millisecond, 2*sim.Millisecond)
	tr.Record(200*sim.Millisecond, 5*sim.Millisecond)
	tr.Record(300*sim.Millisecond, 10*sim.Millisecond) // exactly at threshold: good
	tr.Record(400*sim.Millisecond, 50*sim.Millisecond)
	tr.Record(2500*sim.Millisecond, sim.Millisecond)

	if tr.Count() != 5 || tr.Good() != 4 {
		t.Fatalf("count=%d good=%d, want 5, 4", tr.Count(), tr.Good())
	}
	if got := tr.Attainment(); got != 80 {
		t.Fatalf("attainment %v, want 80", got)
	}
	ws := tr.Windows()
	if len(ws) != 2 {
		t.Fatalf("got %d non-empty windows, want 2 (empty windows skipped)", len(ws))
	}
	w0 := ws[0]
	if w0.Index != 0 || w0.Count != 4 || w0.Good != 3 {
		t.Fatalf("window 0 = %+v", w0)
	}
	// Bad fraction 1/4 against a 10% budget: burn rate 2.5.
	if w0.BurnRate < 2.5-1e-9 || w0.BurnRate > 2.5+1e-9 {
		t.Fatalf("window 0 burn rate %v, want 2.5", w0.BurnRate)
	}
	if ws[1].Index != 2 || ws[1].Count != 1 || ws[1].BurnRate != 0 {
		t.Fatalf("window 2 = %+v", ws[1])
	}
	if w0.P99 < int64(10*sim.Millisecond) {
		t.Fatalf("window 0 p99 %d below the recorded tail", w0.P99)
	}
}

func TestTrackerCensored(t *testing.T) {
	r := NewRegistry(sim.Second)
	tr := r.Tracker("svc", 3, SLO{Threshold: 5 * sim.Millisecond, Target: 0.99})
	tr.Record(sim.Second, 2*sim.Millisecond)
	tr.RecordCensored(sim.Second, 40*sim.Millisecond)
	if tr.Count() != 2 || tr.Censored() != 1 {
		t.Fatalf("count=%d censored=%d, want 2, 1", tr.Count(), tr.Censored())
	}
	// The censored lower bound pulls the tail up: a scheme stranding
	// requests cannot report a clean p99.
	if tr.Total().Quantile(0.99) < int64(40*sim.Millisecond) {
		t.Fatalf("p99 %d ignores the censored lower bound", tr.Total().Quantile(0.99))
	}
	if tr.Good() != 1 {
		t.Fatalf("good=%d: the over-threshold censored request must count as bad", tr.Good())
	}
}

// Nil registry and nil tracker are valid no-op sinks (the metrics
// contract), so workloads record unconditionally.
func TestNilRegistryAndTracker(t *testing.T) {
	var r *Registry
	tr := r.Tracker("x", 1, SLO{})
	if tr != nil {
		t.Fatal("nil registry must hand out nil trackers")
	}
	tr.Record(0, sim.Millisecond)
	tr.RecordCensored(0, sim.Millisecond)
	if tr.Count() != 0 || tr.Attainment() != 0 || tr.Windows() != nil {
		t.Fatal("nil tracker must be inert")
	}
	if err := r.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if !r.Empty() {
		t.Fatal("nil registry is empty")
	}
}

func TestRegistryIdempotentAndOrdered(t *testing.T) {
	r := NewRegistry(0)
	if r.Window() != DefaultWindow {
		t.Fatalf("default window = %v", r.Window())
	}
	a := r.Tracker("a", 2, SLO{Threshold: sim.Millisecond, Target: 0.5})
	b := r.Tracker("b", 3, SLO{})
	again := r.Tracker("a", 2, SLO{Threshold: 9 * sim.Second, Target: 0.1})
	if again != a {
		t.Fatal("re-registration must return the existing tracker")
	}
	if again.Obj != a.Obj {
		t.Fatal("re-registration must keep the original SLO")
	}
	ts := r.Trackers()
	if len(ts) != 2 || ts[0] != a || ts[1] != b {
		t.Fatal("trackers not in registration order")
	}
}

func TestWriteJSONLShape(t *testing.T) {
	r := NewRegistry(sim.Second)
	tr := r.Tracker("web", 2, SLO{Threshold: 10 * sim.Millisecond, Target: 0.99})
	tr.Record(100*sim.Millisecond, 3*sim.Millisecond)
	tr.Record(1500*sim.Millisecond, 30*sim.Millisecond)
	r.Tracker("quiet", 4, SLO{}) // empty, no SLO: summary line only

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("not JSON: %s", line)
		}
		types = append(types, obj["type"].(string))
	}
	want := []string{"latency", "slo", "latency_window", "latency_window", "latency"}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("line types %v, want %v", types, want)
	}
	if !strings.Contains(buf.String(), `"censored":0`) {
		t.Fatal("summary line must surface the censored count")
	}
}
