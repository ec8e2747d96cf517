package sim

import "fmt"

// evqueue is the pending-event priority structure behind an Engine. Two
// implementations exist: the calendar queue (the default — amortized O(1)
// enqueue/dequeue under the quasi-stationary event populations a machine
// simulation produces) and the binary min-heap the engine shipped with,
// kept behind a flag for differential testing. Both dequeue in exactly
// (at, seq) order, so a run is byte-identical under either.
type evqueue interface {
	// push inserts an event.
	push(ev *Event)
	// pop removes and returns the earliest event (by at, then seq), or
	// nil when empty. Cancelled events are returned like any other; the
	// engine filters them.
	pop() *Event
	// min returns the earliest event without removing it, or nil.
	min() *Event
	// size returns the number of queued events, including cancelled ones
	// not yet dropped.
	size() int
	// each visits every queued event in unspecified order.
	each(fn func(*Event))
	// stats snapshots the queue's internal telemetry (ISSUE 10): cheap
	// always-on counters plus an occupancy census computed at call time.
	stats() QueueStats
}

// QueueStats is one event queue's internal telemetry: always-on push
// and structural counters (cheap integer increments, never allocating)
// plus an occupancy census taken at snapshot time. For the heap
// fallback only Kind and Len are meaningful.
type QueueStats struct {
	// Kind names the implementation ("calendar", "heap").
	Kind string
	// Len is the number of queued events at snapshot time.
	Len int
	// Buckets is the current calendar size; Width the current day width.
	Buckets int
	Width   Time
	// Pushes counts every enqueue; Collisions the pushes that landed in
	// a day bucket already holding a live event (same-slot collisions —
	// the in-bucket insertion-sort work the calendar pays).
	Pushes     uint64
	Collisions uint64
	// Rebuilds counts calendar reconstructions; Grows/Shrinks split them
	// by direction.
	Rebuilds uint64
	Grows    uint64
	Shrinks  uint64
	// MaxDepth is the deepest live bucket at snapshot time; Occupancy is
	// the live-depth histogram: Occupancy[d] buckets hold d events, the
	// last cell aggregating every deeper bucket.
	MaxDepth  int
	Occupancy []int
	// WidthLog records the day-width evolution: one entry per rebuild
	// (capped), so the report can show how the calendar adapted to the
	// scenario's event rate.
	WidthLog []WidthChange
}

// WidthChange is one calendar rebuild in a QueueStats width log.
type WidthChange struct {
	// Width is the day width chosen by the rebuild; Buckets the new
	// calendar size; Events the population that was redistributed.
	Width   Time
	Buckets int
	Events  int
}

// CollisionRate is the fraction of pushes that hit an occupied bucket.
func (s QueueStats) CollisionRate() float64 {
	if s.Pushes == 0 {
		return 0
	}
	return float64(s.Collisions) / float64(s.Pushes)
}

// QueueKind selects an event-queue implementation.
type QueueKind int

const (
	// QueueCalendar is the calendar queue (default).
	QueueCalendar QueueKind = iota
	// QueueHeap is the binary min-heap fallback.
	QueueHeap
)

// String names the kind ("calendar", "heap").
func (k QueueKind) String() string {
	switch k {
	case QueueCalendar:
		return "calendar"
	case QueueHeap:
		return "heap"
	default:
		return fmt.Sprintf("queue(%d)", int(k))
	}
}

// ParseQueueKind resolves a -eventq flag value.
func ParseQueueKind(s string) (QueueKind, error) {
	switch s {
	case "", "calendar", "cal":
		return QueueCalendar, nil
	case "heap":
		return QueueHeap, nil
	default:
		return 0, fmt.Errorf("sim: unknown event queue %q (want calendar or heap)", s)
	}
}

// defaultQueue is the implementation NewEngine picks. It is a process-wide
// default so differential harnesses (pisobench -eventq heap, the
// byte-identical registry test) can flip every engine a run builds without
// threading a parameter through each experiment constructor.
var defaultQueue = QueueCalendar

// SetDefaultQueue selects the queue implementation future NewEngine calls
// use and returns the previous default. Not safe to call concurrently
// with engine construction; flip it once at process or test start.
func SetDefaultQueue(k QueueKind) QueueKind {
	old := defaultQueue
	defaultQueue = k
	return old
}

func newQueue(k QueueKind) evqueue {
	switch k {
	case QueueHeap:
		return &heapQueue{}
	default:
		return newCalQueue()
	}
}
