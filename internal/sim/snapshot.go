package sim

import (
	"fmt"
	"sort"

	"perfiso/internal/snap"
)

// Snapshot writes the engine's externally-visible state: the clock, the
// event-sequence counters, and every pending (non-cancelled) event in
// firing order. Two deterministic runs that took the same path have
// byte-identical engine snapshots; when a replay diverges, the first
// differing pending-event line names the subsystem that scheduled it.
func (e *Engine) Snapshot(enc *snap.Encoder) {
	enc.Section("sim")
	enc.Int("now", int64(e.now))
	enc.Uint("seq", e.seq)
	enc.Uint("dispatched", e.dispatched)
	live := make([]*event, 0, len(e.q.q))
	for _, ev := range e.q.q {
		if !ev.cancelled {
			live = append(live, ev)
		}
	}
	sort.Slice(live, func(i, j int) bool { return eventLess(live[i], live[j]) })
	enc.Int("pending", int64(len(live)))
	for i, ev := range live {
		enc.Str(fmt.Sprintf("ev%d", i), fmt.Sprintf("%d:%d %s", int64(ev.at), ev.seq, ev.name))
	}
}
