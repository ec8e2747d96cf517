package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{30, 10, 20, 5, 25} {
		at := at
		e.At(at, "probe", func() { got = append(got, e.Now()) })
	}
	e.Run()
	want := []Time{5, 10, 20, 25, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSameTimeEventsFireFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, "tie", func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO tie-break broken)", i, v, i)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var fired Time
	e.At(50, "outer", func() {
		e.After(25, "inner", func() { fired = e.Now() })
	})
	e.Run()
	if fired != 75 {
		t.Fatalf("inner fired at %v, want 75", fired)
	}
}

func TestAfterClampsNegativeDelay(t *testing.T) {
	e := NewEngine()
	ran := false
	e.At(10, "outer", func() {
		e.After(-5, "inner", func() { ran = true })
	})
	e.Run()
	if !ran {
		t.Fatal("negative-delay event never ran")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, "advance", func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.At(50, "late", func() {})
}

func TestCancelPreventsFiring(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.At(10, "victim", func() { ran = true })
	if !ev.Cancel() {
		t.Fatal("Cancel = false for a pending event")
	}
	if ev.Pending() || ev.Cancel() {
		t.Fatal("cancelled event still pending")
	}
	e.Run()
	if ran {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	e := NewEngine()
	ran := false
	victim := e.At(20, "victim", func() { ran = true })
	e.At(10, "killer", func() { victim.Cancel() })
	e.Run()
	if ran {
		t.Fatal("event cancelled mid-run still fired")
	}
}

func TestPendingReflectsQueue(t *testing.T) {
	e := NewEngine()
	ev := e.At(10, "a", func() {})
	if !ev.Pending() {
		t.Fatal("queued event not Pending")
	}
	e.Run()
	if ev.Pending() {
		t.Fatal("fired event still Pending")
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, "probe", func() { fired = append(fired, at) })
	}
	n := e.RunUntil(25)
	if n != 2 {
		t.Fatalf("dispatched %d, want 2", n)
	}
	if e.Now() != 25 {
		t.Fatalf("Now() = %v, want clock advanced to deadline 25", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2 still queued", e.Pending())
	}
	// The rest still run afterwards.
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("total fired %d, want 4", len(fired))
	}
}

func TestRunUntilWithEmptyQueueAdvancesClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Fatalf("Now() = %v, want 500", e.Now())
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i), "n", func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("ran %d events before Stop, want 3", count)
	}
	// Run resumes where it left off.
	e.Run()
	if count != 10 {
		t.Fatalf("after resume ran %d total, want 10", count)
	}
}

func TestTickerFiresAtPeriod(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	tk := e.Every(10*Millisecond, "tick", func() {
		ticks = append(ticks, e.Now())
		if len(ticks) == 5 {
			e.Stop()
		}
	})
	defer tk.Stop()
	e.Run()
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5", len(ticks))
	}
	for i, at := range ticks {
		want := Time(i+1) * 10 * Millisecond
		if at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk = e.Every(Millisecond, "tick", func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.Run()
	if count != 3 {
		t.Fatalf("ticker fired %d times after Stop at 3", count)
	}
}

func TestTickerStopOutsideCallback(t *testing.T) {
	e := NewEngine()
	count := 0
	tk := e.Every(Millisecond, "tick", func() { count++ })
	e.At(3500*Microsecond, "stopper", func() { tk.Stop() })
	e.Run()
	if count != 3 {
		t.Fatalf("ticker fired %d times, want 3 before stop at 3.5ms", count)
	}
}

func TestDispatchedCounts(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.At(Time(i), "n", func() {})
	}
	e.Run()
	if e.Dispatched() != 7 {
		t.Fatalf("Dispatched() = %d, want 7", e.Dispatched())
	}
}

// Property: however events are scheduled (any set of non-negative offsets),
// they fire in nondecreasing time order and all of them fire.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := NewEngine()
		for _, off := range offsets {
			e.At(Time(off), "p", func() {})
		}
		var last Time = -1
		fired := 0
		for {
			before := e.Now()
			if !e.Step() {
				break
			}
			_ = before
			if e.Now() < last {
				return false
			}
			last = e.Now()
			fired++
		}
		return fired == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: nested scheduling from inside callbacks never observes the
// clock move backwards.
func TestPropertyNestedSchedulingMonotonic(t *testing.T) {
	f := func(seed uint64) bool {
		e := NewEngine()
		r := NewRNG(seed)
		ok := true
		var last Time
		depth := 0
		var spawn func()
		spawn = func() {
			if e.Now() < last {
				ok = false
			}
			last = e.Now()
			if depth < 200 {
				depth++
				e.After(Time(r.Intn(1000)), "child", spawn)
			}
		}
		e.At(0, "root", spawn)
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Regression: Stop() during RunUntil must halt the clock at the stop
// point, not teleport it to the deadline. The seed engine advanced
// e.now to the deadline unconditionally, so a kernel that stopped at
// t=10 reported makespans inflated to whatever deadline the caller
// passed.
func TestRunUntilStoppedEarlyDoesNotAdvanceToDeadline(t *testing.T) {
	e := NewEngine()
	e.At(10, "stopper", func() { e.Stop() })
	e.At(20, "later", func() {})
	n := e.RunUntil(1000)
	if n != 1 {
		t.Fatalf("dispatched %d, want 1 (stop after first event)", n)
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %v after Stop at 10, want 10 (not deadline 1000)", e.Now())
	}
	// Resuming still drains up to the deadline and then advances.
	n = e.RunUntil(1000)
	if n != 1 {
		t.Fatalf("resume dispatched %d, want 1", n)
	}
	if e.Now() != 1000 {
		t.Fatalf("Now() = %v after drain, want deadline 1000", e.Now())
	}
}

// Events are recycled the moment they fire; scheduling from inside a
// callback must not corrupt the event being dispatched.
func TestRescheduleFromCallback(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			e.After(Millisecond, "tick", tick)
		}
	}
	e.After(Millisecond, "tick", tick)
	e.Run()
	if count != 100 {
		t.Fatalf("rescheduling chain fired %d times, want 100", count)
	}
	if e.Now() != 100*Millisecond {
		t.Fatalf("Now() = %v, want 100ms", e.Now())
	}
}

// A caller may keep a Handle and Cancel it long after its event fired;
// that must stay a no-op rather than cancel the live event scheduled
// since, which may occupy the recycled allocation.
func TestStaleHandleCancelIsInert(t *testing.T) {
	e := NewEngine()
	stale := e.At(1, "old", func() {})
	e.Run()
	fired := false
	e.After(Microsecond, "live", func() { fired = true })
	if stale.Cancel() {
		t.Fatal("Cancel on a stale fired handle returned true")
	}
	e.Run()
	if !fired {
		t.Fatal("Cancel on a stale fired handle killed an unrelated event")
	}
}

// The free list must actually recycle: a long chain of events should
// keep the engine's backing storage flat.
func TestPooledEventsAreRecycled(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 1000; i++ {
		e.After(Microsecond, "n", func() {})
		e.Step()
	}
	if got := len(e.free); got != 1 {
		t.Fatalf("free list holds %d events after steady-state chain, want 1", got)
	}
}
