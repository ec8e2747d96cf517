package sim

import (
	"fmt"
)

// Event is a scheduled callback. Events are created through Engine.At /
// Engine.After and can be cancelled until they fire.
type Event struct {
	at        Time
	seq       uint64 // tie-breaker for same-time events; preserves FIFO order
	fn        func()
	fnU       func(uint64) // closure-free callback form; arg carries the operand
	arg       uint64
	name      string
	index     int    // queue position marker, -1 when not queued
	class     uint16 // observer class id, stamped at schedule time (see Obs)
	cancelled bool
	pooled    bool // fire-and-forget event; recycled after it fires
}

// At returns the instant the event is scheduled to fire.
func (ev *Event) At() Time { return ev.at }

// Name returns the diagnostic label given at scheduling time.
func (ev *Event) Name() string { return ev.name }

// Cancel prevents the event from firing. Cancelling an event that has
// already fired or was already cancelled is a no-op. Cancelled events are
// dropped lazily when they surface at the head of the queue.
func (ev *Event) Cancel() { ev.cancelled = true }

// Cancelled reports whether Cancel has been called on the event.
func (ev *Event) Cancelled() bool { return ev.cancelled }

// Pending reports whether the event is still queued and will fire.
func (ev *Event) Pending() bool { return ev.index >= 0 && !ev.cancelled }

// Handle cancels a pooled (Call/CallAfter) event. Pooled events are
// recycled the moment they fire, so a bare *Event would dangle: the same
// allocation may already be some other subsystem's event. The handle
// captures the scheduling sequence number and goes inert the instant the
// underlying allocation is reused, so a stale Cancel can never kill an
// unrelated event. The zero Handle is valid and inert.
type Handle struct {
	ev  *Event
	seq uint64
}

// Cancel prevents the event from firing, returning true if it was still
// pending. Cancelling an event that already fired (or a zero Handle) is
// an inert no-op, even if the allocation has been recycled.
func (h Handle) Cancel() bool {
	if h.ev == nil || h.ev.seq != h.seq || h.ev.index < 0 || h.ev.cancelled {
		return false
	}
	h.ev.cancelled = true
	return true
}

// Pending reports whether the handle's event is still queued and will fire.
func (h Handle) Pending() bool {
	return h.ev != nil && h.ev.seq == h.seq && h.ev.index >= 0 && !h.ev.cancelled
}

// Engine is the discrete-event simulation core: a virtual clock and a
// priority queue of events. It is not safe for concurrent use; the whole
// simulated machine runs on one OS thread by design. Independent engines
// are fully isolated, so separate simulations may run on separate
// goroutines concurrently.
type Engine struct {
	now        Time
	seq        uint64
	q          evqueue
	kind       QueueKind
	free       []*Event // recycled pool for fire-and-forget events
	arena      []Event  // current allocation chunk; events are carved from it
	arenaPos   int
	dispatched uint64
	running    bool
	stop       bool
	obs        *Obs // nil unless AttachObs was called; one nil check per hot path
}

// arenaChunk is how many events each arena block holds. Blocks are never
// freed individually — the pool's steady state recycles events, so new
// blocks are only carved while the live population is still growing.
const arenaChunk = 128

// NewEngine returns an engine with the clock at zero and no events
// queued, using the process-default queue implementation (see
// SetDefaultQueue).
func NewEngine() *Engine {
	k := defaultQueue
	return &Engine{q: newQueue(k), kind: k}
}

// QueueStats snapshots the event queue's internal telemetry.
func (e *Engine) QueueStats() QueueStats { return e.q.stats() }

// QueueKind reports which event-queue implementation this engine uses.
func (e *Engine) QueueKind() QueueKind { return e.kind }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events currently queued (including events
// that were cancelled but not yet dropped).
func (e *Engine) Pending() int { return e.q.size() }

// Dispatched returns the total number of events that have fired.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// eventLess orders events by time, breaking ties by scheduling order so
// same-time events fire FIFO.
func eventLess(a, b *Event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// alloc builds an event, drawing from the recycle pool, then the current
// arena chunk, and queues it.
func (e *Engine) alloc(t Time, name string, fn func(), fnU func(uint64), arg uint64, pooled bool) *Event {
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		if e.arenaPos == len(e.arena) {
			e.arena = make([]Event, arenaChunk)
			e.arenaPos = 0
		}
		ev = &e.arena[e.arenaPos]
		e.arenaPos++
	}
	*ev = Event{at: t, seq: e.seq, fn: fn, fnU: fnU, arg: arg, name: name, index: -1, pooled: pooled}
	e.seq++
	if e.obs != nil {
		ev.class = e.obs.classOf(name)
	}
	e.q.push(ev)
	return ev
}

// checkSchedule validates scheduling time. Scheduling in the past is a
// programming error in the machine model and panics loudly rather than
// silently corrupting causality.
func (e *Engine) checkSchedule(t Time, name string) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %s, before now (%s)", name, t, e.now))
	}
}

// At schedules fn to run at absolute time t and returns a cancellable
// handle. Handles are never recycled: callers may retain them after the
// event fires. High-rate fire-and-forget callers should prefer Call,
// which pools its allocations.
func (e *Engine) At(t Time, name string, fn func()) *Event {
	e.checkSchedule(t, name)
	if fn == nil {
		panic(fmt.Sprintf("sim: event %q has nil callback", name))
	}
	return e.alloc(t, name, fn, nil, 0, false)
}

// After schedules fn to run d after the current time. Negative delays are
// clamped to "now" so callers computing small time deltas from float math
// do not trip the past-scheduling panic on a -1 ns rounding artifact.
func (e *Engine) After(d Time, name string, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, name, fn)
}

// Call schedules fn at absolute time t like At, but the event's
// allocation is recycled the moment it fires, so steady-state
// fire-and-forget traffic — disk completions, semaphore releases, process
// sleeps, scheduler slices — allocates nothing. The returned Handle is
// the only safe way to cancel such an event; it goes inert once the
// event fires.
func (e *Engine) Call(t Time, name string, fn func()) Handle {
	e.checkSchedule(t, name)
	if fn == nil {
		panic(fmt.Sprintf("sim: event %q has nil callback", name))
	}
	ev := e.alloc(t, name, fn, nil, 0, true)
	return Handle{ev: ev, seq: ev.seq}
}

// CallAfter schedules fn to run d after the current time, with Call's
// pooled fire-and-forget semantics. Negative delays clamp to "now" like
// After.
func (e *Engine) CallAfter(d Time, name string, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return e.Call(e.now+d, name, fn)
}

// CallU64 is Call for a callback taking a uint64 operand. Passing the
// operand through the event instead of closing over it lets hot callers
// (the scheduler's slice-expiry guard) schedule with a single long-lived
// func value and no per-event closure allocation.
func (e *Engine) CallU64(t Time, name string, fn func(uint64), arg uint64) Handle {
	e.checkSchedule(t, name)
	if fn == nil {
		panic(fmt.Sprintf("sim: event %q has nil callback", name))
	}
	ev := e.alloc(t, name, nil, fn, arg, true)
	return Handle{ev: ev, seq: ev.seq}
}

// CallAfterU64 is CallAfter for a callback taking a uint64 operand.
func (e *Engine) CallAfterU64(d Time, name string, fn func(uint64), arg uint64) Handle {
	if d < 0 {
		d = 0
	}
	return e.CallU64(e.now+d, name, fn, arg)
}

// Ticker fires a callback at a fixed period until cancelled. The callback
// runs for the first time one full period after creation. Each arming
// uses a pooled event and the one fire closure allocated at creation, so
// a steady ticker contributes nothing to allocation traffic.
type Ticker struct {
	engine *Engine
	period Time
	name   string
	fn     func()
	fire   func()
	h      Handle
	done   bool
}

// Every creates and starts a Ticker with the given period.
func (e *Engine) Every(period Time, name string, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: ticker %q has non-positive period %s", name, period))
	}
	t := &Ticker{engine: e, period: period, name: name, fn: fn}
	t.fire = func() {
		if t.done {
			return
		}
		t.fn()
		if !t.done { // fn may have stopped us
			t.h = t.engine.CallAfter(t.period, t.name, t.fire)
		}
	}
	t.h = e.CallAfter(period, name, t.fire)
	return t
}

// Stop cancels the ticker; the callback will not run again.
func (t *Ticker) Stop() {
	t.done = true
	t.h.Cancel()
}

// Step fires the single earliest pending event. It reports false when the
// queue is empty (after discarding cancelled events).
func (e *Engine) Step() bool {
	for {
		ev := e.q.pop()
		if ev == nil {
			return false
		}
		if ev.cancelled {
			if ev.pooled {
				e.recycle(ev)
			}
			continue
		}
		if ev.at < e.now {
			panic(fmt.Sprintf("sim: time went backwards firing %q (%s < %s)", ev.name, ev.at, e.now))
		}
		e.now = ev.at
		e.dispatched++
		// Read the callback (and, when observed, the class stamped at
		// schedule time) before recycling: a pooled event's allocation may
		// be reused by a schedule issued from inside its own callback.
		fn, fnU, arg, class := ev.fn, ev.fnU, ev.arg, ev.class
		if ev.pooled {
			// Recycle before firing so an event scheduled from inside fn
			// reuses the hot allocation.
			e.recycle(ev)
		}
		if e.obs != nil {
			e.obs.beginDispatch(class)
		}
		if fnU != nil {
			fnU(arg)
		} else {
			fn()
		}
		return true
	}
}

// recycle returns a pooled event to the free list.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.fnU = nil
	e.free = append(e.free, ev)
}

// Run fires events until the queue drains or Stop is called, and returns
// the number of events dispatched by this call.
func (e *Engine) Run() uint64 {
	start := e.dispatched
	e.running, e.stop = true, false
	for !e.stop && e.Step() {
	}
	e.running = false
	return e.dispatched - start
}

// RunUntil fires events with timestamps <= deadline, then sets the clock
// to the deadline. Events after the deadline stay queued. If Stop ends
// the run early the clock stays where the last event left it — simulated
// time the run never reached must not silently elapse.
func (e *Engine) RunUntil(deadline Time) uint64 {
	start := e.dispatched
	e.running, e.stop = true, false
	for !e.stop {
		// Peek past cancelled events without firing anything late.
		next := e.peek()
		if next == nil || next.at > deadline {
			// Drained up to the deadline: the remaining gap really was
			// idle, so the clock advances over it.
			if e.now < deadline {
				e.now = deadline
			}
			break
		}
		e.Step()
	}
	e.running = false
	return e.dispatched - start
}

// Stop makes the innermost Run/RunUntil return after the current event's
// callback completes. It may only be called from inside a callback.
func (e *Engine) Stop() { e.stop = true }

// peek returns the earliest non-cancelled event without firing it,
// discarding (and recycling) cancelled events it passes over.
func (e *Engine) peek() *Event {
	for {
		ev := e.q.min()
		if ev == nil {
			return nil
		}
		if !ev.cancelled {
			return ev
		}
		e.q.pop()
		if ev.pooled {
			e.recycle(ev)
		}
	}
}
