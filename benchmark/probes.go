package main

import (
	"fmt"
	"time"

	"perfiso/internal/core"
	"perfiso/internal/disk"
	"perfiso/internal/mem"
	"perfiso/internal/sim"
)

// Layer probes time one layer's public functions on a fresh engine,
// away from the rest of the kernel. Each returns host nanoseconds per
// operation, or an error when the layer did not do the work it was
// given.

// probeDiskPick submits q requests to an idle PIso disk and drains
// them: a scattered 8-sector reader SPU alternates with a contiguous
// 128-sector writer SPU, so every pick scans a queue of up to q
// requests from two SPUs.
func probeDiskPick(q int, seed uint64) (float64, error) {
	eng := sim.NewEngine()
	d := disk.New(eng, disk.HP97560(), disk.NewPIso(0), 0)
	reader, writer := core.FirstUserID, core.FirstUserID+1
	d.SetShare(reader, 1)
	d.SetShare(writer, 1)
	rng := sim.NewRNG(seed)
	// Scattered reads land anywhere in the lower half of the disk; the
	// writer streams through the upper half.
	half := d.Params().TotalSectors() / 2
	next := half
	done := 0
	count := func(*disk.Request) { done++ }
	start := time.Now()
	for i := 0; i < q; i++ {
		r := &disk.Request{Kind: disk.Read, Sector: rng.Int63n(half - 8), Count: 8, SPU: reader, Done: count}
		if i%2 == 1 {
			r = &disk.Request{Kind: disk.Write, Sector: next, Count: 128, SPU: writer, Done: count}
			next += 128
		}
		d.Submit(r)
	}
	eng.Run()
	elapsed := time.Since(start)
	if done != q {
		return 0, fmt.Errorf("disk probe: %d of %d requests completed", done, q)
	}
	return float64(elapsed.Nanoseconds()) / float64(q), nil
}

// discard is a page owner that forgets evicted pages.
type discard struct{}

func (discard) PageEvicted(*mem.Page) {}

// probeMemReclaim holds one SPU at its memory limit and times n
// Requests, each of which must evict the SPU's own least recently used
// page to be served.
func probeMemReclaim(n int) (float64, error) {
	eng := sim.NewEngine()
	spus := core.NewManager()
	u := spus.NewSPU("probe", 1, core.ShareNone)
	spus.NewSPU("idle", 1, core.ShareNone)
	m := mem.NewManager(eng, spus, 2048, 0)
	m.DivideAmongSPUs()
	for m.Allocate(u.ID(), mem.Anon, discard{}) != nil {
	}
	served := 0
	got := func(*mem.Page) { served++ }
	start := time.Now()
	for i := 0; i < n; i++ {
		m.Request(u.ID(), mem.Anon, discard{}, got)
	}
	elapsed := time.Since(start)
	if served != n || m.Stat.Evictions < int64(n) {
		return 0, fmt.Errorf("mem probe: %d of %d requests served with %d evictions", served, n, m.Stat.Evictions)
	}
	return float64(elapsed.Nanoseconds()) / float64(n), nil
}

// probeEvent times n schedule-and-dispatch pairs (After then Step) on
// an engine holding 4,096 pending events.
func probeEvent(n int) (float64, error) {
	const depth = 4096
	eng := sim.NewEngine()
	fired := 0
	fn := func() { fired++ }
	for i := 0; i < depth; i++ {
		eng.After(sim.Time(i)*sim.Microsecond, "probe.fill", fn)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		eng.After(depth*sim.Microsecond, "probe.event", fn)
		eng.Step()
	}
	elapsed := time.Since(start)
	if fired != n || eng.Pending() != depth {
		return 0, fmt.Errorf("event probe: %d of %d events fired, %d pending", fired, n, eng.Pending())
	}
	return float64(elapsed.Nanoseconds()) / float64(n), nil
}
