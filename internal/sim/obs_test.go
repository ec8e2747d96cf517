package sim

import "testing"

// TestObsCensus drives a small event graph through an observed engine
// and checks the per-class dispatch counts.
func TestObsCensus(t *testing.T) {
	e := NewEngine()
	obs := e.AttachObs()
	e.Call(10, "kernel.tick", func() {
		e.CallAfter(5, "kernel.tick2", func() {})
		e.CallAfter(7, "disk.complete", func() {
			e.CallAfter(2, "kernel.tick3", func() {})
		})
		e.CallAfter(3, "disk.complete", func() {})
	})
	e.Run()

	counts := map[string]uint64{}
	for _, c := range obs.Classes() {
		counts[c.Name] = c.Count
	}
	want := map[string]uint64{"kernel.tick": 1, "kernel.tick2": 1, "kernel.tick3": 1, "disk.complete": 2}
	if len(counts) != len(want) {
		t.Fatalf("census = %v, want %v", counts, want)
	}
	for name, n := range want {
		if counts[name] != n {
			t.Fatalf("census[%s] = %d, want %d (all: %v)", name, counts[name], n, counts)
		}
	}
}

// TestObsDefaultClassifier checks the module rule: the name's prefix
// before the first '.', or the whole name when it has none.
func TestObsDefaultClassifier(t *testing.T) {
	e := NewEngine()
	obs := e.AttachObs()
	e.Call(1, "mem.scan", func() {})
	e.Call(2, "bare", func() {})
	e.Run()
	for _, c := range obs.Classes() {
		if want := map[string]string{"mem.scan": "mem", "bare": "bare"}[c.Name]; c.Module != want {
			t.Fatalf("%s classified as module %q, want %q", c.Name, c.Module, want)
		}
	}
}

// TestObsRecycledClassStamp checks that a pooled event scheduled from
// inside the callback of the event whose allocation it reuses still gets
// its own class (the dispatch path must read the stamp before recycling).
func TestObsRecycledClassStamp(t *testing.T) {
	e := NewEngine()
	obs := e.AttachObs()
	var fired int
	e.Call(1, "a.first", func() {
		// Reuses the just-recycled allocation of a.first.
		e.CallAfter(1, "b.second", func() { fired++ })
	})
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	for _, c := range obs.Classes() {
		if c.Name == "b.second" && (c.Count != 1 || c.Module != "b") {
			t.Fatalf("b.second = %+v", c)
		}
		if c.Name == "a.first" && c.Count != 1 {
			t.Fatalf("a.first = %+v", c)
		}
	}
}

// TestObsAttachLate ensures attaching after events were scheduled panics:
// those events would carry unclassified (zero) class stamps.
func TestObsAttachLate(t *testing.T) {
	e := NewEngine()
	e.Call(1, "x", func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("AttachObs after scheduling did not panic")
		}
	}()
	e.AttachObs()
}

// TestObsWindows drives exactly five GC/alloc windows' worth of events
// and checks the windows roll over and the host clock is sampled every
// obsSampleStride dispatches.
func TestObsWindows(t *testing.T) {
	e := NewEngine()
	obs := e.AttachObs()
	const total = 5 * obsWindowEvents
	var tick func()
	n := 0
	tick = func() {
		if n++; n < total {
			e.CallAfter(1, "w.tick", tick)
		}
	}
	e.Call(1, "w.tick", tick)
	e.Run()
	w := obs.Windows()
	if len(w) != 5 {
		t.Fatalf("windows = %d, want 5", len(w))
	}
	for _, win := range w {
		if win.Events != obsWindowEvents || win.HostNS < 0 {
			t.Fatalf("window = %+v, want %d events and host ns >= 0", win, obsWindowEvents)
		}
	}
	if got := obs.Samples(); got != total/obsSampleStride {
		t.Fatalf("samples = %d, want %d", got, total/obsSampleStride)
	}
}

// TestQueueStatsCalendar checks the calendar queue's counters see traffic
// and the occupancy histogram sums to the bucket count.
func TestQueueStatsCalendar(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 2000; i++ {
		e.Call(Time(i%7), "q.ev", func() {})
	}
	s := e.QueueStats()
	if s.Kind != "calendar" {
		t.Fatalf("kind = %q", s.Kind)
	}
	if s.Pushes < 2000 {
		t.Fatalf("pushes = %d", s.Pushes)
	}
	if s.Collisions == 0 {
		t.Fatal("no collisions recorded despite same-time bursts")
	}
	if s.Len != 2000 {
		t.Fatalf("len = %d", s.Len)
	}
	var total int
	for _, n := range s.Occupancy {
		total += n
	}
	if total != s.Buckets {
		t.Fatalf("occupancy sums to %d, buckets = %d", total, s.Buckets)
	}
	if s.MaxDepth == 0 {
		t.Fatal("max depth zero with 2000 queued events")
	}
	e.Run()
	s = e.QueueStats()
	if s.Len != 0 {
		t.Fatalf("len after drain = %d", s.Len)
	}
	if s.Rebuilds == 0 || s.Grows == 0 {
		t.Fatalf("expected rebuilds after 2000-event burst: %+v", s)
	}
	if s.CollisionRate() <= 0 {
		t.Fatal("collision rate zero")
	}
}

// TestQueueStatsHeap checks the heap fallback reports its kind and size.
func TestQueueStatsHeap(t *testing.T) {
	prev := SetDefaultQueue(QueueHeap)
	defer SetDefaultQueue(prev)
	e := NewEngine()
	e.Call(1, "h.ev", func() {})
	s := e.QueueStats()
	if s.Kind != "heap" || s.Len != 1 {
		t.Fatalf("heap stats = %+v", s)
	}
}
