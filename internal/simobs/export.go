package simobs

import (
	"io"

	"perfiso/internal/artifact"
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

// WriteJSONL writes the report as one JSON object per line, deterministic
// lines first, then the host-timing lines.
func (r *Report) WriteJSONL(w io.Writer) error {
	e := artifact.NewEncoder(w)
	e.Begin().Str("type", "simobs_scenario").Str("scenario", r.Scenario).
		Uint("events", r.Events).Uint("samples", r.Samples).Line()
	e.Begin().Str("type", "simobs_queue").Str("scenario", r.Scenario).
		Uint("pushes", r.Queue.Pushes).Int("pending", int64(r.Queue.Len)).Line()
	for _, c := range r.Classes {
		e.Begin().Str("type", "simobs_class").Str("scenario", r.Scenario).
			Str("name", c.Name).Str("module", c.Module).Uint("count", c.Count).Line()
	}
	for _, c := range r.Classes {
		if c.HostNS == 0 {
			continue
		}
		e.Begin().Str("type", "simobs_host").Str("scenario", r.Scenario).
			Str("name", c.Name).Str("module", c.Module).Int("host_ns", c.HostNS).Line()
	}
	for _, win := range r.Windows {
		e.Begin().Str("type", "simobs_window").Str("scenario", r.Scenario).
			Uint("events", win.Events).Int("host_ns", win.HostNS).Uint("gc_cycles", win.GCCycles).
			Uint("alloc_objects", win.AllocObjects).Uint("alloc_bytes", win.AllocBytes).Line()
	}
	return e.Flush()
}
