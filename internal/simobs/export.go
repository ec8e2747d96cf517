package simobs

import (
	"encoding/json"
	"io"
)

// JSONL export. Every line carries a "type" discriminator. Line types
// are split into a deterministic set — identical across runs of the same
// build, so they can be diffed and asserted on — and a host set whose
// nanosecond fields depend on the machine:
//
//	deterministic: simobs_scenario, simobs_queue, simobs_class
//	host:          simobs_host, simobs_window
//
// Downstream tools filter on the prefix; HostLineTypes lists the
// nondeterministic ones.

// HostLineTypes are the JSONL line types whose values depend on host
// timing; everything else is deterministic for a given build + scenario.
var HostLineTypes = map[string]bool{"simobs_host": true, "simobs_window": true}

type scenarioLine struct {
	Type     string `json:"type"`
	Scenario string `json:"scenario"`
	Events   uint64 `json:"events"`
	Samples  uint64 `json:"samples"`
}

type queueLine struct {
	Type     string `json:"type"`
	Scenario string `json:"scenario"`
	Pushes   uint64 `json:"pushes"`
	Pending  int    `json:"pending"`
}

type classLine struct {
	Type     string `json:"type"`
	Scenario string `json:"scenario"`
	Name     string `json:"name"`
	Module   string `json:"module"`
	Count    uint64 `json:"count"`
}

type hostLine struct {
	Type     string `json:"type"`
	Scenario string `json:"scenario"`
	Name     string `json:"name"`
	Module   string `json:"module"`
	HostNS   int64  `json:"host_ns"`
}

type windowLine struct {
	Type         string `json:"type"`
	Scenario     string `json:"scenario"`
	Events       uint64 `json:"events"`
	HostNS       int64  `json:"host_ns"`
	GCCycles     uint64 `json:"gc_cycles"`
	AllocObjects uint64 `json:"alloc_objects"`
	AllocBytes   uint64 `json:"alloc_bytes"`
}

// WriteJSONL writes the report as one JSON object per line, deterministic
// lines first, then the host-timing lines.
func (r *Report) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(scenarioLine{
		Type: "simobs_scenario", Scenario: r.Scenario,
		Events: r.Events, Samples: r.Samples,
	}); err != nil {
		return err
	}
	if err := enc.Encode(queueLine{
		Type: "simobs_queue", Scenario: r.Scenario,
		Pushes: r.Queue.Pushes, Pending: r.Queue.Len,
	}); err != nil {
		return err
	}
	for _, c := range r.Classes {
		if err := enc.Encode(classLine{
			Type: "simobs_class", Scenario: r.Scenario,
			Name: c.Name, Module: c.Module, Count: c.Count,
		}); err != nil {
			return err
		}
	}
	for _, c := range r.Classes {
		if c.HostNS == 0 {
			continue
		}
		if err := enc.Encode(hostLine{
			Type: "simobs_host", Scenario: r.Scenario,
			Name: c.Name, Module: c.Module, HostNS: c.HostNS,
		}); err != nil {
			return err
		}
	}
	for _, win := range r.Windows {
		if err := enc.Encode(windowLine{
			Type: "simobs_window", Scenario: r.Scenario,
			Events: win.Events, HostNS: win.HostNS, GCCycles: win.GCCycles,
			AllocObjects: win.AllocObjects, AllocBytes: win.AllocBytes,
		}); err != nil {
			return err
		}
	}
	return nil
}
