package simobs

import (
	"fmt"
	"strings"

	"perfiso/internal/stats"
)

// String renders the full self-observability report for one scenario:
// queue internals, the event census, and sampled host-time attribution.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== simobs: %s ==\n", r.Scenario)
	fmt.Fprintf(&b, "events dispatched: %d; host samples: %d\n\n", r.Events, r.Samples)

	b.WriteString(r.queueSection())
	b.WriteString("\n")
	b.WriteString(r.censusTable().String())
	b.WriteString("\n")
	b.WriteString(r.hostSection())
	return b.String()
}

// queueSection renders the event-queue internals.
func (r *Report) queueSection() string {
	q := r.Queue
	var b strings.Builder
	fmt.Fprintf(&b, "-- event queue (%s) --\n", q.Kind)
	fmt.Fprintf(&b, "pushes %d, same-slot collisions %d (%.1f%%), rebuilds %d (%d grow, %d shrink)\n",
		q.Pushes, q.Collisions, 100*q.CollisionRate(), q.Rebuilds, q.Grows, q.Shrinks)
	fmt.Fprintf(&b, "final: %d buckets, day width %.1fus, %d pending, max bucket depth %d\n",
		q.Buckets, q.Width.Microseconds(), q.Len, q.MaxDepth)
	if len(q.Occupancy) > 0 {
		b.WriteString("bucket occupancy:")
		for d, n := range q.Occupancy {
			if n == 0 {
				continue
			}
			if d == len(q.Occupancy)-1 {
				fmt.Fprintf(&b, " %d+:%d", d, n)
			} else {
				fmt.Fprintf(&b, " %d:%d", d, n)
			}
		}
		b.WriteString("\n")
	}
	if len(q.WidthLog) > 0 {
		b.WriteString("day-width evolution:")
		for _, w := range q.WidthLog {
			fmt.Fprintf(&b, " %.1fus/%db@%dev", w.Width.Microseconds(), w.Buckets, w.Events)
		}
		b.WriteString("\n")
	}
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
