package sim

// eventHeap is the engine's pending-event queue: a binary min-heap
// ordered by (at, seq), so same-time events fire in scheduling order.
// The heap is hand-rolled rather than container/heap so comparisons and
// moves stay concrete (*event) instead of boxing through an interface on
// every scheduler tick, disk request, and page fault.
type eventHeap struct {
	q []*event
}

// eventLess orders events by time, breaking ties by scheduling order so
// same-time events fire FIFO.
func eventLess(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (h *eventHeap) min() *event {
	if len(h.q) == 0 {
		return nil
	}
	return h.q[0]
}

// push inserts ev, sifting it up to its position.
func (h *eventHeap) push(ev *event) {
	i := len(h.q)
	h.q = append(h.q, ev)
	q := h.q
	for i > 0 {
		parent := (i - 1) / 2
		p := q[parent]
		if !eventLess(ev, p) {
			break
		}
		q[i] = p
		p.index = i
		i = parent
	}
	q[i] = ev
	ev.index = i
}

// pop removes and returns the earliest event, or nil when empty,
// sifting the displaced tail element down by comparing sibling children
// at each level. Cancelled events are returned like any other; the
// engine filters them.
func (h *eventHeap) pop() *event {
	if len(h.q) == 0 {
		return nil
	}
	q := h.q
	n := len(q) - 1
	top := q[0]
	top.index = -1
	ev := q[n]
	q[n] = nil
	h.q = q[:n]
	if n == 0 {
		return top
	}
	q = h.q
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := q[l]
		if r := l + 1; r < n && eventLess(q[r], c) {
			l, c = r, q[r]
		}
		if !eventLess(c, ev) {
			break
		}
		q[i] = c
		c.index = i
		i = l
	}
	q[i] = ev
	ev.index = i
	return top
}

// QueueStats is the event queue's telemetry.
type QueueStats struct {
	// Len is the number of queued events at snapshot time, including
	// cancelled ones not yet dropped.
	Len int
	// Pushes counts every event ever scheduled on the engine.
	Pushes uint64
	// Collisions is always 0: a heap has no buckets for events to
	// collide in. It stays for the benchmark's queue_collision_rate.
	Collisions uint64
}
