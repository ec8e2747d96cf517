package sim

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// This file is the engine half of the simulator self-observability layer
// (internal/simobs builds reports on top of it). An Obs attached to an
// Engine watches two things the paper-style methodology needs for the
// simulator itself:
//
//   - an event-class census: how many events each callback site
//     dispatched (tick, slice-end, disk completion, lock grant, ...);
//   - host-time attribution: stride-sampled wall-clock nanoseconds
//     credited to the class whose event was executing at each sample,
//     with GC/alloc counters folded into fixed-size event windows.
//
// A class's module is its name's prefix before the first '.', so a new
// callback site classifies itself by following the "module.event"
// naming convention.
//
// When no Obs is attached (the default) the engine pays exactly one nil
// check per schedule and per dispatch and allocates nothing; the
// zero-alloc dispatch guards in internal/kernel enforce that. When
// attached, the census costs one map probe at schedule time (the class
// id is stamped on the event and reused at dispatch), and wall-clock
// reads happen only every obsSampleStride dispatches — the whole layer
// stays within a few percent of ns/event.

const (
	// obsSampleStride is how many dispatches share one wall-clock read:
	// the whole inter-sample window is attributed to the class executing
	// at the sample, classic sampling-profiler style.
	obsSampleStride = 32
	// obsWindowEvents is the GC/alloc accounting window in events.
	obsWindowEvents = 1 << 16
)

// ObsClassStat is one callback site in snapshot form.
type ObsClassStat struct {
	Name   string
	Module string
	// Count is the number of dispatches (deterministic).
	Count uint64
	// HostNS is sampled wall-clock attributed to the class
	// (nondeterministic; zero when the class never held a sample).
	HostNS int64
}

// ObsWindow is one completed GC/alloc accounting window.
type ObsWindow struct {
	Events       uint64
	HostNS       int64
	GCCycles     uint64
	AllocObjects uint64
	AllocBytes   uint64
}

// Obs is an engine observer. It is attached with Engine.AttachObs
// before any event is scheduled and read after the run quiesces.
type Obs struct {
	classIDs    map[string]uint16
	classNames  []string
	classCounts []uint64
	classHostNS []int64

	// Host-time sampling.
	sinceSample uint32
	lastSample  int64
	samples     uint64

	// GC/alloc windows.
	sinceWindow  uint64
	windowHost   int64
	windows      []ObsWindow
	msamples     []metrics.Sample
	lastGC       uint64
	lastAllocs   uint64
	lastAllocBts uint64
}

// obsEpoch anchors the monotonic host clock all observers share.
var obsEpoch = time.Now()

// hostNow returns monotonic host nanoseconds since process start.
func hostNow() int64 { return int64(time.Since(obsEpoch)) }

func newObs() *Obs {
	o := &Obs{
		classIDs: make(map[string]uint16, 64),
		msamples: []metrics.Sample{
			{Name: "/gc/cycles/total:gc-cycles"},
			{Name: "/gc/heap/allocs:objects"},
			{Name: "/gc/heap/allocs:bytes"},
		},
	}
	o.windowHost = hostNow()
	metrics.Read(o.msamples)
	o.lastGC = o.msamples[0].Value.Uint64()
	o.lastAllocs = o.msamples[1].Value.Uint64()
	o.lastAllocBts = o.msamples[2].Value.Uint64()
	return o
}

// AttachObs attaches an observer to the engine. It must be called
// before any event is scheduled — every event is classified exactly
// once, at schedule time.
func (e *Engine) AttachObs() *Obs {
	if e.seq != 0 {
		panic(fmt.Sprintf("sim: AttachObs after %d events were scheduled", e.seq))
	}
	e.obs = newObs()
	return e.obs
}

// Obs returns the attached observer, or nil when the engine runs dark.
func (e *Engine) Obs() *Obs { return e.obs }

// classOf interns an event name as a class id.
func (o *Obs) classOf(name string) uint16 {
	if id, ok := o.classIDs[name]; ok {
		return id
	}
	id := uint16(len(o.classNames))
	o.classNames = append(o.classNames, name)
	o.classCounts = append(o.classCounts, 0)
	o.classHostNS = append(o.classHostNS, 0)
	o.classIDs[name] = id
	return id
}

// beginDispatch records a dispatch of the given class and takes the
// occasional wall-clock sample.
func (o *Obs) beginDispatch(class uint16) {
	o.classCounts[class]++
	if o.sinceSample++; o.sinceSample >= obsSampleStride {
		o.sinceSample = 0
		now := hostNow()
		if d := now - o.lastSample; o.lastSample != 0 && d > 0 {
			o.classHostNS[class] += d
		}
		o.lastSample = now
		o.samples++
	}
	if o.sinceWindow++; o.sinceWindow >= obsWindowEvents {
		o.rollWindow()
	}
}

// rollWindow closes one GC/alloc accounting window.
func (o *Obs) rollWindow() {
	events := o.sinceWindow
	o.sinceWindow = 0
	now := hostNow()
	metrics.Read(o.msamples)
	gc := o.msamples[0].Value.Uint64()
	objs := o.msamples[1].Value.Uint64()
	bts := o.msamples[2].Value.Uint64()
	o.windows = append(o.windows, ObsWindow{
		Events:       events,
		HostNS:       now - o.windowHost,
		GCCycles:     gc - o.lastGC,
		AllocObjects: objs - o.lastAllocs,
		AllocBytes:   bts - o.lastAllocBts,
	})
	o.windowHost = now
	o.lastGC, o.lastAllocs, o.lastAllocBts = gc, objs, bts
}

// Classes snapshots the census, sorted by name so every downstream
// artifact is deterministic.
func (o *Obs) Classes() []ObsClassStat {
	out := make([]ObsClassStat, 0, len(o.classNames))
	for i, name := range o.classNames {
		module, _, _ := strings.Cut(name, ".")
		out = append(out, ObsClassStat{
			Name:   name,
			Module: module,
			Count:  o.classCounts[i],
			HostNS: o.classHostNS[i],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Samples reports how many wall-clock samples were taken.
func (o *Obs) Samples() uint64 { return o.samples }

// Windows returns the completed GC/alloc windows.
func (o *Obs) Windows() []ObsWindow {
	return append([]ObsWindow(nil), o.windows...)
}
