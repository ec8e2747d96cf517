package sim

import "testing"

// TestObsCensusAndEdges drives a tiny two-domain event graph through an
// observed engine and checks the census, the intra/cross/external split,
// and the edge lookahead statistics.
func TestObsCensusAndEdges(t *testing.T) {
	e := NewEngine()
	obs := e.AttachObs(ObsConfig{
		Classify: func(name string) (string, string) {
			switch name {
			case "disk.complete":
				return "disk", "disk0"
			default:
				return "kernel", "global"
			}
		},
	})

	// External schedule (issued outside any dispatch).
	e.Call(10, "kernel.tick", func() {
		// Intra-domain: global -> global.
		e.CallAfter(5, "kernel.tick2", func() {})
		// Cross-domain: global -> disk0, lookahead 7 then 3.
		e.CallAfter(7, "disk.complete", func() {
			// Cross back: disk0 -> global, lookahead 2.
			e.CallAfter(2, "kernel.tick3", func() {})
		})
		e.CallAfter(3, "disk.complete", func() {})
	})
	e.Run()

	classes := obs.Classes()
	counts := map[string]uint64{}
	for _, c := range classes {
		counts[c.Name] = c.Count
		switch c.Name {
		case "disk.complete":
			if c.Module != "disk" || c.Domain != "disk0" {
				t.Fatalf("disk.complete classified as %s/%s", c.Module, c.Domain)
			}
		default:
			if c.Module != "kernel" || c.Domain != "global" {
				t.Fatalf("%s classified as %s/%s", c.Name, c.Module, c.Domain)
			}
		}
	}
	want := map[string]uint64{"kernel.tick": 1, "kernel.tick2": 1, "kernel.tick3": 1, "disk.complete": 2}
	for name, n := range want {
		if counts[name] != n {
			t.Fatalf("census[%s] = %d, want %d (all: %v)", name, counts[name], n, counts)
		}
	}

	intra, cross, external := obs.EdgeTotals()
	if external != 1 {
		t.Fatalf("external = %d, want 1", external)
	}
	if intra != 1 {
		t.Fatalf("intra = %d, want 1", intra)
	}
	if cross != 3 {
		t.Fatalf("cross = %d, want 3", cross)
	}

	edges := obs.Edges()
	if len(edges) != 2 {
		t.Fatalf("edges = %+v, want 2 entries", edges)
	}
	// Sorted by (From, To): disk0->global first, then global->disk0.
	if edges[0].From != "disk0" || edges[0].To != "global" || edges[0].Count != 1 || edges[0].MinLookahead != 2 {
		t.Fatalf("edge[0] = %+v", edges[0])
	}
	if edges[1].From != "global" || edges[1].To != "disk0" || edges[1].Count != 2 || edges[1].MinLookahead != 3 || edges[1].SumLookahead != 10 {
		t.Fatalf("edge[1] = %+v", edges[1])
	}
}

// TestObsDefaultClassifier checks the prefix-module fallback.
func TestObsDefaultClassifier(t *testing.T) {
	e := NewEngine()
	obs := e.AttachObs(ObsConfig{})
	e.Call(1, "mem.scan", func() {})
	e.Call(2, "bare", func() {})
	e.Run()
	for _, c := range obs.Classes() {
		switch c.Name {
		case "mem.scan":
			if c.Module != "mem" || c.Domain != "global" {
				t.Fatalf("mem.scan classified as %s/%s", c.Module, c.Domain)
			}
		case "bare":
			if c.Module != "bare" || c.Domain != "global" {
				t.Fatalf("bare classified as %s/%s", c.Module, c.Domain)
			}
		}
	}
}

// TestObsRecycledClassStamp checks that a pooled event scheduled from
// inside the callback of the event whose allocation it reuses still gets
// its own class (the dispatch path must read the stamp before recycling).
func TestObsRecycledClassStamp(t *testing.T) {
	e := NewEngine()
	obs := e.AttachObs(ObsConfig{})
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
	e.AttachObs(ObsConfig{})
}

// TestObsWindows forces small windows and checks the GC/alloc accounting
// rolls over.
func TestObsWindows(t *testing.T) {
	e := NewEngine()
	obs := e.AttachObs(ObsConfig{WindowEvents: 8, SampleStride: 2})
	var tick func()
	n := 0
	tick = func() {
		if n++; n < 50 {
			e.CallAfter(1, "w.tick", tick)
		}
	}
	e.Call(1, "w.tick", tick)
	e.Run()
	if w := obs.Windows(); len(w) < 5 {
		t.Fatalf("windows = %d, want >= 5", len(w))
	} else {
		var ev uint64
		for _, win := range w {
			ev += win.Events
			if win.HostNS < 0 {
				t.Fatalf("negative window host ns: %+v", win)
			}
		}
		if ev < 40 {
			t.Fatalf("windowed events = %d, want >= 40", ev)
		}
	}
	if obs.Samples() == 0 {
		t.Fatal("no host-time samples taken")
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

// TestQueueStatsMerge exercises the aggregation used by multi-engine
// scenario reports.
func TestQueueStatsMerge(t *testing.T) {
	a := QueueStats{Kind: "calendar", Len: 1, Buckets: 256, Pushes: 10, Collisions: 2, MaxDepth: 3, Occupancy: []int{5, 1}}
	b := QueueStats{Kind: "calendar", Len: 2, Buckets: 512, Pushes: 30, Collisions: 2, MaxDepth: 2, Occupancy: []int{1, 1, 1}}
	a.Merge(b)
	if a.Len != 3 || a.Buckets != 512 || a.Pushes != 40 || a.Collisions != 4 || a.MaxDepth != 3 {
		t.Fatalf("merged = %+v", a)
	}
	if len(a.Occupancy) != 3 || a.Occupancy[0] != 6 || a.Occupancy[2] != 1 {
		t.Fatalf("merged occupancy = %v", a.Occupancy)
	}
	if r := a.CollisionRate(); r != 0.1 {
		t.Fatalf("collision rate = %v", r)
	}
}
