package simobs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"perfiso/internal/sim"
)

func TestClassify(t *testing.T) {
	cases := []struct{ name, module, domain string }{
		{"kernel.tick", "kernel", "global"},
		{"sched.slice", "sched", "global"},
		{"disk.complete", "disk", "global"},
		{"disk0.complete", "disk", "disk0"},
		{"disk12.complete", "disk", "disk12"},
		{"diskette.jam", "diskette", "global"},
		{"lock.release", "lock", "global"},
		{"bare", "bare", "global"},
	}
	for _, c := range cases {
		m, d := Classify(c.name)
		if m != c.module || d != c.domain {
			t.Errorf("Classify(%q) = %s/%s, want %s/%s", c.name, m, d, c.module, c.domain)
		}
	}
}

// runScenario drives a small two-disk workload on an observed engine and
// returns its report.
func runScenario(t *testing.T) *Report {
	t.Helper()
	e := sim.NewEngine()
	e.AttachObs(sim.ObsConfig{Classify: Classify, SampleStride: 4, WindowEvents: 16})
	var pump func()
	n := 0
	pump = func() {
		// Intra-domain chain plus two cross-domain hops per round.
		e.CallAfter(3*sim.Microsecond, "disk0.complete", func() {})
		e.CallAfter(5*sim.Microsecond, "disk1.complete", func() {
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
	if r.Scenario != "unit" || r.Engines != 1 {
		t.Fatalf("report header = %+v", r)
	}
	// 100 ticks (1 initial + 99 re-armed), 100 disk0, 100 disk1, 100 wakeups.
	if r.Events != 400 {
		t.Fatalf("events = %d", r.Events)
	}
	wantDomains := []string{"disk0", "disk1", "global"}
	if strings.Join(r.Domains, ",") != strings.Join(wantDomains, ",") {
		t.Fatalf("domains = %v", r.Domains)
	}
	// Cross edges: global->disk0 (100), global->disk1 (100), disk1->global
	// (100). Intra: tick re-arms (99). External: the initial Call.
	if r.Cross != 300 || r.Intra != 99 || r.External != 1 {
		t.Fatalf("intra/cross/external = %d/%d/%d", r.Intra, r.Cross, r.External)
	}
	if f := r.CrossFraction(); f < 0.74 || f > 0.76 {
		t.Fatalf("cross fraction = %v", f)
	}
	if la := r.MinLookahead(); la != 2*sim.Microsecond {
		t.Fatalf("min lookahead = %v", la)
	}
	if la := r.MeanLookahead(); la < 3*sim.Microsecond || la > 4*sim.Microsecond {
		t.Fatalf("mean lookahead = %v", la)
	}
	if len(r.Edges) != 3 {
		t.Fatalf("edges = %+v", r.Edges)
	}
	if r.Queue.Pushes == 0 || r.Queue.Kind == "" {
		t.Fatalf("queue stats missing: %+v", r.Queue)
	}
	// The text report must mention every section.
	s := r.String()
	for _, want := range []string{"event census", "parallelism feasibility", "cross-domain fraction", "host-time attribution", "event queue"} {
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
	for _, want := range []string{`"type":"simobs_scenario"`, `"type":"simobs_queue"`, `"type":"simobs_class"`, `"type":"simobs_edge"`} {
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
