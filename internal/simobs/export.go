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
//	deterministic: simobs_scenario, simobs_queue, simobs_width,
//	               simobs_class, simobs_edge
//	host:          simobs_host, simobs_window
//
// Downstream tools filter on the prefix; HostLineTypes lists the
// nondeterministic ones.

// HostLineTypes are the JSONL line types whose values depend on host
// timing; everything else is deterministic for a given build + scenario.
var HostLineTypes = map[string]bool{"simobs_host": true, "simobs_window": true}

type scenarioLine struct {
	Type          string   `json:"type"`
	Scenario      string   `json:"scenario"`
	Engines       int      `json:"engines"`
	Events        uint64   `json:"events"`
	Intra         uint64   `json:"intra"`
	Cross         uint64   `json:"cross"`
	External      uint64   `json:"external"`
	CrossFraction float64  `json:"cross_fraction"`
	MeanLookahead int64    `json:"mean_lookahead_ns"`
	MinLookahead  int64    `json:"min_lookahead_ns"`
	Domains       []string `json:"domains"`
	Samples       uint64   `json:"samples"`
}

type queueLine struct {
	Type          string  `json:"type"`
	Scenario      string  `json:"scenario"`
	Kind          string  `json:"kind"`
	Len           int     `json:"len"`
	Buckets       int     `json:"buckets"`
	WidthNS       int64   `json:"width_ns"`
	Pushes        uint64  `json:"pushes"`
	Collisions    uint64  `json:"collisions"`
	CollisionRate float64 `json:"collision_rate"`
	Rebuilds      uint64  `json:"rebuilds"`
	Grows         uint64  `json:"grows"`
	Shrinks       uint64  `json:"shrinks"`
	MaxDepth      int     `json:"max_depth"`
	Occupancy     []int   `json:"occupancy"`
}

type widthLine struct {
	Type     string `json:"type"`
	Scenario string `json:"scenario"`
	WidthNS  int64  `json:"width_ns"`
	Buckets  int    `json:"buckets"`
	Events   int    `json:"events"`
}

type classLine struct {
	Type     string `json:"type"`
	Scenario string `json:"scenario"`
	Name     string `json:"name"`
	Module   string `json:"module"`
	Domain   string `json:"domain"`
	Count    uint64 `json:"count"`
}

type edgeLine struct {
	Type          string `json:"type"`
	Scenario      string `json:"scenario"`
	From          string `json:"from"`
	To            string `json:"to"`
	Count         uint64 `json:"count"`
	MeanLookahead int64  `json:"mean_lookahead_ns"`
	MinLookahead  int64  `json:"min_lookahead_ns"`
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
		Type: "simobs_scenario", Scenario: r.Scenario, Engines: r.Engines,
		Events: r.Events, Intra: r.Intra, Cross: r.Cross, External: r.External,
		CrossFraction: r.CrossFraction(),
		MeanLookahead: int64(r.MeanLookahead()), MinLookahead: int64(r.MinLookahead()),
		Domains: r.Domains, Samples: r.Samples,
	}); err != nil {
		return err
	}
	q := r.Queue
	if err := enc.Encode(queueLine{
		Type: "simobs_queue", Scenario: r.Scenario, Kind: q.Kind, Len: q.Len,
		Buckets: q.Buckets, WidthNS: int64(q.Width), Pushes: q.Pushes,
		Collisions: q.Collisions, CollisionRate: q.CollisionRate(),
		Rebuilds: q.Rebuilds, Grows: q.Grows, Shrinks: q.Shrinks,
		MaxDepth: q.MaxDepth, Occupancy: q.Occupancy,
	}); err != nil {
		return err
	}
	for _, wc := range q.WidthLog {
		if err := enc.Encode(widthLine{
			Type: "simobs_width", Scenario: r.Scenario,
			WidthNS: int64(wc.Width), Buckets: wc.Buckets, Events: wc.Events,
		}); err != nil {
			return err
		}
	}
	for _, c := range r.Classes {
		if err := enc.Encode(classLine{
			Type: "simobs_class", Scenario: r.Scenario,
			Name: c.Name, Module: c.Module, Domain: c.Domain, Count: c.Count,
		}); err != nil {
			return err
		}
	}
	for _, e := range r.Edges {
		mean := int64(0)
		if e.Count > 0 {
			mean = int64(e.SumLookahead) / int64(e.Count)
		}
		if err := enc.Encode(edgeLine{
			Type: "simobs_edge", Scenario: r.Scenario,
			From: e.From, To: e.To, Count: e.Count,
			MeanLookahead: mean, MinLookahead: int64(e.MinLookahead),
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
