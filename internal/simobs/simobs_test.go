package simobs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"perfiso/internal/sim"
)

// runScenario drives a small disk-and-kernel event loop on an observed
// engine and returns its report.
func runScenario(t *testing.T) *Report {
	t.Helper()
	e := sim.NewEngine()
	e.AttachObs()
	var pump func()
	n := 0
	pump = func() {
		// Each round completes two disk requests, one of which wakes the
		// kernel.
		e.CallAfter(3*sim.Microsecond, "disk.complete", func() {})
		e.CallAfter(5*sim.Microsecond, "disk.complete", func() {
			e.CallAfter(2*sim.Microsecond, "kernel.wakeup", func() {})
		})
		if n++; n < 100 {
			e.CallAfter(10*sim.Microsecond, "kernel.tick", pump)
		}
	}
	e.Call(0, "kernel.tick", pump)
	e.Run()
	return Build("unit", e)
}

func TestBuildReport(t *testing.T) {
	r := runScenario(t)
	if r.Scenario != "unit" {
		t.Fatalf("report header = %+v", r)
	}
	// 100 ticks (1 initial + 99 re-armed), 200 disk completions, 100 wakeups.
	if r.Events != 400 {
		t.Fatalf("events = %d", r.Events)
	}
	counts := map[string]uint64{}
	for _, c := range r.Classes {
		counts[c.Name] = c.Count
	}
	if counts["kernel.tick"] != 100 || counts["disk.complete"] != 200 || counts["kernel.wakeup"] != 100 {
		t.Fatalf("census = %v", counts)
	}
	if r.Queue.Pushes == 0 || r.Queue.Kind == "" {
		t.Fatalf("queue stats missing: %+v", r.Queue)
	}
	// The text report must mention every section.
	s := r.String()
	for _, want := range []string{"event census", "host-time attribution", "event queue"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

func TestJSONLDeterministicSubset(t *testing.T) {
	deterministic := func() string {
		var buf bytes.Buffer
		if err := runScenario(t).WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		var keep []string
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			var probe struct {
				Type string `json:"type"`
			}
			if err := json.Unmarshal([]byte(line), &probe); err != nil {
				t.Fatalf("bad JSONL line %q: %v", line, err)
			}
			if probe.Type == "" {
				t.Fatalf("line without type: %q", line)
			}
			if !HostLineTypes[probe.Type] {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	a, b := deterministic(), deterministic()
	if a != b {
		t.Fatalf("deterministic JSONL subset differs between runs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	for _, want := range []string{`"type":"simobs_scenario"`, `"type":"simobs_queue"`, `"type":"simobs_class"`} {
		if !strings.Contains(a, want) {
			t.Fatalf("JSONL missing %s", want)
		}
	}
}

func TestModuleHosts(t *testing.T) {
	r := runScenario(t)
	mods := map[string]bool{}
	var events uint64
	for _, m := range r.ModuleHosts() {
		mods[m.Module] = true
		events += m.Events
	}
	if !mods["kernel"] || !mods["disk"] {
		t.Fatalf("module aggregation = %v", mods)
	}
	if events != r.Events {
		t.Fatalf("module events %d != dispatched %d", events, r.Events)
	}
}
