package simobs

import (
	"fmt"
	"strings"

	"perfiso/internal/stats"
)

// String renders the full self-observability report for one scenario:
// queue telemetry, the event census, and sampled host-time attribution.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== simobs: %s ==\n", r.Scenario)
	fmt.Fprintf(&b, "events dispatched: %d; host samples: %d\n\n", r.Events, r.Samples)

	fmt.Fprintf(&b, "-- event queue --\npushes %d, %d pending\n\n", r.Queue.Pushes, r.Queue.Len)
	b.WriteString(r.censusTable().String())
	b.WriteString("\n")
	b.WriteString(r.hostSection())
	return b.String()
}

// censusTable renders the per-callback-site event census.
func (r *Report) censusTable() *stats.Table {
	t := stats.NewTable("event census", "event", "module", "count", "events%")
	for _, c := range r.Classes {
		pct := 0.0
		if r.Events > 0 {
			pct = 100 * float64(c.Count) / float64(r.Events)
		}
		t.Addf(c.Name, c.Module, fmt.Sprintf("%d", c.Count), pct)
	}
	return t
}

// hostSection renders sampled host-time attribution and the GC windows.
func (r *Report) hostSection() string {
	var b strings.Builder
	total := r.HostNSTotal()
	t := stats.NewTable("host-time attribution (sampled)", "module", "events", "host ms", "host%")
	for _, m := range r.ModuleHosts() {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(m.HostNS) / float64(total)
		}
		t.Addf(m.Module, fmt.Sprintf("%d", m.Events), float64(m.HostNS)/1e6, pct)
	}
	b.WriteString(t.String())
	w := r.WindowTotals()
	if w.Events > 0 {
		perEvent := float64(w.AllocObjects) / float64(w.Events)
		fmt.Fprintf(&b, "gc windows: %d windows over %d events, %.1f ms host, %d gc cycles, %.3f allocs/event (%.1f B/event)\n",
			len(r.Windows), w.Events, float64(w.HostNS)/1e6, w.GCCycles,
			perEvent, float64(w.AllocBytes)/float64(w.Events))
	}
	return b.String()
}
