package sim

import "testing"

// TestObsCensus drives a small event graph through an observed engine
// and checks the per-class dispatch counts.
func TestObsCensus(t *testing.T) {
	e := NewEngine()
	obs := e.AttachObs()
	e.At(10, "kernel.tick", func() {
		e.After(5, "kernel.tick2", func() {})
		e.After(7, "disk.complete", func() {
			e.After(2, "kernel.tick3", func() {})
		})
		e.After(3, "disk.complete", func() {})
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
	e.At(1, "mem.scan", func() {})
	e.At(2, "bare", func() {})
	e.Run()
	for _, c := range obs.Classes() {
		if want := map[string]string{"mem.scan": "mem", "bare": "bare"}[c.Name]; c.Module != want {
			t.Fatalf("%s classified as module %q, want %q", c.Name, c.Module, want)
		}
	}
}

// TestObsRecycledClassStamp checks that an event scheduled from
// inside the callback of the event whose allocation it reuses still gets
// its own class (the dispatch path must read the stamp before recycling).
func TestObsRecycledClassStamp(t *testing.T) {
	e := NewEngine()
	obs := e.AttachObs()
	var fired int
	e.At(1, "a.first", func() {
		// Reuses the just-recycled allocation of a.first.
		e.After(1, "b.second", func() { fired++ })
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
	e.At(1, "x", func() {})
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
			e.After(1, "w.tick", tick)
		}
	}
	e.At(1, "w.tick", tick)
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

// TestQueueStatsHeap checks the queue reports its size and counts every
// schedule, cancelled or fired, as a push.
func TestQueueStatsHeap(t *testing.T) {
	e := NewEngine()
	e.At(1, "h.ev", func() {})
	h := e.After(2, "h.cancelled", func() {})
	if s := e.QueueStats(); s.Len != 2 || s.Pushes != 2 || s.Collisions != 0 {
		t.Fatalf("stats with two queued = %+v", s)
	}
	h.Cancel()
	e.Run()
	e.At(3, "h.late", func() {})
	if s := e.QueueStats(); s.Len != 1 || s.Pushes != 3 {
		t.Fatalf("stats after drain and one more = %+v", s)
	}
}
