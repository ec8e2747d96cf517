package sim

import (
	"fmt"
)

// event is a scheduled callback. Every event is pooled: its allocation
// is recycled the moment it fires or is dropped as cancelled, and the
// Handle returned at scheduling time is the only way to reach it.
type event struct {
	at        Time
	seq       uint64 // tie-breaker for same-time events; preserves FIFO order
	fn        func()
	fnU       func(uint64) // closure-free callback form; arg carries the operand
	arg       uint64
	name      string
	index     int    // heap position, -1 when not queued
	class     uint16 // observer class id, stamped at schedule time (see Obs)
	cancelled bool
}

// Handle cancels a scheduled event. Events are recycled the moment they
// fire, so a bare *event would dangle: the same allocation may already
// be some other subsystem's event. The handle captures the scheduling
// sequence number and goes inert the instant the underlying allocation
// is reused, so a stale Cancel can never kill an unrelated event. The
// zero Handle is valid and inert.
type Handle struct {
	ev  *event
	seq uint64
}

// Cancel prevents the event from firing, returning true if it was still
// pending. Cancelling an event that already fired (or a zero Handle) is
// an inert no-op, even if the allocation has been recycled. Cancelled
// events are dropped lazily when they surface at the head of the queue.
func (h Handle) Cancel() bool {
	if !h.Pending() {
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
	q          eventHeap
	free       []*event // recycled events
	arena      []event  // current allocation chunk; events are carved from it
	arenaPos   int
	dispatched uint64
	stop       bool
	obs        *Obs // nil unless AttachObs was called; one nil check per hot path
}

// arenaChunk is how many events each arena block holds. Blocks are never
// freed individually — the pool's steady state recycles events, so new
// blocks are only carved while the live population is still growing.
const arenaChunk = 128

// NewEngine returns an engine with the clock at zero and no events
// queued.
func NewEngine() *Engine { return &Engine{} }

// QueueStats snapshots the event queue's telemetry.
func (e *Engine) QueueStats() QueueStats {
	return QueueStats{Len: len(e.q.q), Pushes: e.seq}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events currently queued (including events
// that were cancelled but not yet dropped).
func (e *Engine) Pending() int { return len(e.q.q) }

// Dispatched returns the total number of events that have fired.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// schedule validates and queues an event, drawing its allocation from
// the recycle pool, then the current arena chunk. Scheduling in the
// past or without a callback is a programming error in the machine
// model and panics loudly rather than silently corrupting causality.
func (e *Engine) schedule(t Time, name string, fn func(), fnU func(uint64), arg uint64) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %s, before now (%s)", name, t, e.now))
	}
	if fn == nil && fnU == nil {
		panic(fmt.Sprintf("sim: event %q has nil callback", name))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		if e.arenaPos == len(e.arena) {
			e.arena = make([]event, arenaChunk)
			e.arenaPos = 0
		}
		ev = &e.arena[e.arenaPos]
		e.arenaPos++
	}
	*ev = event{at: t, seq: e.seq, fn: fn, fnU: fnU, arg: arg, name: name, index: -1}
	e.seq++
	if e.obs != nil {
		ev.class = e.obs.classOf(name)
	}
	e.q.push(ev)
	return Handle{ev: ev, seq: ev.seq}
}

// At schedules fn to run at absolute time t. The event's allocation is
// recycled the moment it fires, so steady-state traffic — disk
// completions, semaphore releases, process sleeps, scheduler slices —
// allocates nothing. The returned Handle cancels the event and goes
// inert once it fires.
func (e *Engine) At(t Time, name string, fn func()) Handle {
	return e.schedule(t, name, fn, nil, 0)
}

// After schedules fn to run d after the current time. Negative delays are
// clamped to "now" so callers computing small time deltas from float math
// do not trip the past-scheduling panic on a -1 ns rounding artifact.
func (e *Engine) After(d Time, name string, fn func()) Handle {
	return e.schedule(e.now+max(d, 0), name, fn, nil, 0)
}

// AtU64 is At for a callback taking a uint64 operand. Passing the
// operand through the event instead of closing over it lets hot callers
// (the scheduler's slice-expiry guard) schedule with a single long-lived
// func value and no per-event closure allocation.
func (e *Engine) AtU64(t Time, name string, fn func(uint64), arg uint64) Handle {
	return e.schedule(t, name, nil, fn, arg)
}

// AfterU64 is After for a callback taking a uint64 operand.
func (e *Engine) AfterU64(d Time, name string, fn func(uint64), arg uint64) Handle {
	return e.schedule(e.now+max(d, 0), name, nil, fn, arg)
}

// Ticker fires a callback at a fixed period until cancelled. The callback
// runs for the first time one full period after creation. Each arming
// uses a recycled event and the one fire closure allocated at creation, so
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
			t.h = t.engine.After(t.period, t.name, t.fire)
		}
	}
	t.h = e.After(period, name, t.fire)
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
			e.recycle(ev)
			continue
		}
		if ev.at < e.now {
			panic(fmt.Sprintf("sim: time went backwards firing %q (%s < %s)", ev.name, ev.at, e.now))
		}
		e.now = ev.at
		e.dispatched++
		// Read the callback (and, when observed, the class stamped at
		// schedule time), then recycle before firing: an event scheduled
		// from inside the callback reuses the hot allocation.
		fn, fnU, arg, class := ev.fn, ev.fnU, ev.arg, ev.class
		e.recycle(ev)
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

// recycle returns an event to the free list.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.fnU = nil
	e.free = append(e.free, ev)
}

// Run fires events until the queue drains or Stop is called, and returns
// the number of events dispatched by this call.
func (e *Engine) Run() uint64 {
	start := e.dispatched
	e.stop = false
	for !e.stop && e.Step() {
	}
	return e.dispatched - start
}

// RunUntil fires events with timestamps <= deadline, then sets the clock
// to the deadline. Events after the deadline stay queued. If Stop ends
// the run early the clock stays where the last event left it — simulated
// time the run never reached must not silently elapse.
func (e *Engine) RunUntil(deadline Time) uint64 {
	start := e.dispatched
	e.stop = false
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
	return e.dispatched - start
}

// Stop makes the innermost Run/RunUntil return after the current event's
// callback completes. It may only be called from inside a callback.
func (e *Engine) Stop() { e.stop = true }

// peek returns the earliest non-cancelled event without firing it,
// discarding (and recycling) cancelled events it passes over.
func (e *Engine) peek() *event {
	for {
		ev := e.q.min()
		if ev == nil || !ev.cancelled {
			return ev
		}
		e.recycle(e.q.pop())
	}
}
