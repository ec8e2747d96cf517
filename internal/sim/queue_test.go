package sim

import (
	"sort"
	"testing"
)

// onHeap runs fn as the subtest "heap", named for the engine's binary-heap
// queue. The tests that use it ran once per queue while a calendar queue
// existed; the subtest keeps their names stable.
func onHeap(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	t.Run("heap", fn)
}

// Regression: an event cancelled before firing used to leak — the
// dispatch loop dropped cancelled events without returning them to the
// free list, so every cancelled timer (scheduler slices invalidated by
// preemption, ticker stops) cost a fresh allocation forever after. Both
// the pop path (Run) and the peek path (RunUntil's deadline check) must
// recycle.
func TestCancelledPooledEventIsRecycled(t *testing.T) {
	onHeap(t, func(t *testing.T) {
		e := NewEngine()
		h := e.After(Millisecond, "victim", func() { t.Error("cancelled event fired") })
		if !h.Cancel() {
			t.Fatal("Cancel returned false for a pending event")
		}
		e.Run()
		if len(e.free) != 1 {
			t.Fatalf("free pool holds %d events after Run, want 1 (cancelled event leaked)", len(e.free))
		}
		recycled := e.free[0]
		h2 := e.After(Millisecond, "reuse", func() {})
		if h2.ev != recycled {
			t.Fatal("next schedule did not reuse the recycled allocation")
		}
		h2.Cancel()

		// Peek path: RunUntil must also recycle cancelled events it skips.
		e2 := NewEngine()
		h3 := e2.After(Millisecond, "victim2", func() { t.Error("cancelled event fired") })
		h3.Cancel()
		e2.RunUntil(2 * Millisecond)
		if len(e2.free) != 1 {
			t.Fatalf("free pool holds %d events after RunUntil, want 1", len(e2.free))
		}
	})
}

// A handle to a recycled-and-reused allocation must stay inert: the
// sequence stamp changes on reuse, so the stale Cancel cannot kill the
// unrelated event now occupying the same memory.
func TestStaleHandleAfterRecycleCannotCancelSuccessor(t *testing.T) {
	onHeap(t, func(t *testing.T) {
		e := NewEngine()
		stale := e.At(Millisecond, "first", func() {})
		e.Run() // fires; allocation returns to the pool
		fired := false
		fresh := e.After(Millisecond, "second", func() { fired = true })
		if stale.ev != fresh.ev {
			t.Fatal("test setup: allocation was not reused")
		}
		if stale.Pending() || stale.Cancel() {
			t.Fatal("stale handle claimed a pending event")
		}
		e.Run()
		if !fired {
			t.Fatal("stale handle killed the successor event")
		}
	})
}

// Pins the Ticker/RunUntil contract at exact horizon boundaries: a tick
// landing exactly on the deadline fires within that RunUntil (the
// horizon is inclusive), its re-arm stays queued for the next run, and
// resuming produces no duplicate or missing tick at the seam. The
// invariant auditor's checkpoint/replay comparisons rely on straight
// runs and resumed runs counting the same ticks.
func TestTickerRunUntilExactHorizonBoundary(t *testing.T) {
	onHeap(t, func(t *testing.T) {
		e := NewEngine()
		var fires []Time
		tk := e.Every(10*Millisecond, "tick", func() { fires = append(fires, e.Now()) })

		e.RunUntil(30 * Millisecond)
		if len(fires) != 3 || fires[2] != 30*Millisecond {
			t.Fatalf("after RunUntil(30ms): fires = %v, want [10ms 20ms 30ms]", fires)
		}
		if e.Now() != 30*Millisecond {
			t.Fatalf("clock = %v, want 30ms", e.Now())
		}

		e.RunUntil(60 * Millisecond)
		if len(fires) != 6 || fires[3] != 40*Millisecond || fires[5] != 60*Millisecond {
			t.Fatalf("after resume to 60ms: fires = %v, want six ticks ending at 60ms", fires)
		}

		// Stopping at the horizon: no tick may fire after Stop, and the
		// cancelled re-arm must not strand the clock.
		tk.Stop()
		e.RunUntil(100 * Millisecond)
		if len(fires) != 6 {
			t.Fatalf("ticks fired after Stop: %v", fires[6:])
		}
		if e.Now() != 100*Millisecond {
			t.Fatalf("clock = %v, want 100ms", e.Now())
		}
	})
}

// Order oracle: whatever the scheduling entry point, the engine
// dispatches exactly the schedule stably sorted by time — same-time
// events in scheduling order — minus the events cancelled through their
// handles. The schedule is tie-heavy so FIFO among equal times carries
// most of the check.
func TestDispatchOrderIsStableSortOfSchedule(t *testing.T) {
	type rec struct {
		at Time
		id int
	}
	e := NewEngine()
	rng := NewRNG(7)
	var schedule, got []rec
	var handles []Handle
	fired := func(id int) { got = append(got, rec{e.Now(), id}) }
	firedU := func(id uint64) { fired(int(id)) }
	for i := 0; i < 2000; i++ {
		id := i
		// Coarse quantization forces many exact ties; occasional large
		// offsets spread the schedule over minutes.
		at := Time(rng.Int63n(50)) * Millisecond
		if rng.Intn(20) == 0 {
			at += Time(rng.Int63n(4)) * 40 * Second
		}
		var h Handle
		switch i % 3 {
		case 0:
			h = e.At(at, "at", func() { fired(id) })
		case 1:
			h = e.After(at, "after", func() { fired(id) }) // the clock is at 0
		default:
			h = e.AtU64(at, "atU64", firedU, uint64(id))
		}
		schedule = append(schedule, rec{at, id})
		handles = append(handles, h)
	}
	cancelled := map[int]bool{}
	for _, id := range rng.Perm(len(handles))[:len(handles)/10] {
		if !handles[id].Cancel() {
			t.Fatalf("Cancel of pending event %d returned false", id)
		}
		cancelled[id] = true
	}

	sort.SliceStable(schedule, func(i, j int) bool { return schedule[i].at < schedule[j].at })
	var want []rec
	for _, r := range schedule {
		if !cancelled[r.id] {
			want = append(want, r)
		}
	}
	e.Run()
	if len(got) != len(want) {
		t.Fatalf("dispatched %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// The steady-state dispatch path — recycled events, tickers, and the
// U64 operand form — must not allocate: the whole fast-core claim
// rests on dispatch being allocation-free once the pool is warm.
func TestSteadyStateDispatchIsZeroAlloc(t *testing.T) {
	onHeap(t, func(t *testing.T) {
		e := NewEngine()
		fn := func() {}
		fnU := func(uint64) {}
		tk := e.Every(Millisecond, "tick", func() {})
		// Warm the pool and the ticker.
		for i := 0; i < 64; i++ {
			e.After(Microsecond, "warm", fn)
		}
		e.RunUntil(10 * Millisecond)

		if avg := testing.AllocsPerRun(200, func() {
			e.After(Microsecond, "pooled", fn)
			e.AfterU64(2*Microsecond, "pooledU", fnU, 42)
			h := e.After(3*Microsecond, "cancelled", fn)
			h.Cancel()
			e.RunUntil(e.Now() + 5*Microsecond)
		}); avg != 0 {
			t.Fatalf("steady-state dispatch allocates %v allocs/op, want 0", avg)
		}
		tk.Stop()
	})
}
