package sim

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"time"
)

// This file is the engine half of the simulator self-observability layer
// (internal/simobs builds reports on top of it). An Obs attached to an
// Engine watches three things the paper-style methodology needs for the
// simulator itself:
//
//   - an event-class census: how many events each callback site
//     dispatched (tick, slice-end, disk completion, lock grant, ...);
//   - host-time attribution: stride-sampled wall-clock nanoseconds
//     credited to the module whose event was executing at each sample,
//     with GC/alloc counters folded into fixed-size event windows;
//   - resource-domain causality: every event carries the domain its
//     callback executes in (per-disk, per-node, global), and every
//     schedule issued from inside a dispatch is classified as intra- or
//     cross-domain, with the cross edges keeping lookahead statistics —
//     the input for the conservative-parallelization feasibility report.
//
// When no Obs is attached (the default) the engine pays exactly one nil
// check per schedule and per dispatch and allocates nothing; the
// zero-alloc dispatch guards in internal/kernel enforce that. When
// attached, the census costs one map probe at schedule time (the class
// id is stamped on the event and reused at dispatch), domains are small
// array indexes, and wall-clock reads happen only every SampleStride
// dispatches — the whole layer stays within a few percent of ns/event.

// obsMaxDomains bounds the domain universe so the cross-domain edge
// matrix can be a flat array instead of a map on the schedule path.
// Domains past the cap collapse into the last slot ("overflow").
const obsMaxDomains = 16

// ObsConfig tunes an engine observer.
type ObsConfig struct {
	// Classify maps an event name (callback site) to the module that
	// executes it and the resource domain it belongs to. Nil uses the
	// site prefix before the first '.' as the module and "global" as the
	// domain. internal/simobs installs the kernel-aware classifier.
	Classify func(name string) (module, domain string)
	// SampleStride is how many dispatches share one wall-clock read
	// (default 32): the whole inter-sample window is attributed to the
	// module executing at the sample, classic sampling-profiler style.
	SampleStride int
	// WindowEvents is the GC/alloc accounting window in events
	// (default 65536).
	WindowEvents int
}

// obsEdge accumulates one (from domain, to domain) causality edge.
type obsEdge struct {
	count uint64
	sumLA int64 // summed lookahead, ns
	minLA int64
}

// ObsEdgeStat is one cross-domain causality edge in snapshot form: how
// often events executing in From scheduled events that will execute in
// To, and how far in the future they were scheduled (the lookahead a
// conservative parallel simulation could exploit on that edge).
type ObsEdgeStat struct {
	From, To     string
	Count        uint64
	SumLookahead Time
	MinLookahead Time
}

// ObsClassStat is one callback site in snapshot form.
type ObsClassStat struct {
	Name   string
	Module string
	Domain string
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
	classify     func(string) (string, string)
	stride       uint32
	windowEvents uint64

	classIDs     map[string]uint16
	classNames   []string
	classModules []uint16
	classDomains []uint8
	classCounts  []uint64
	classHostNS  []int64

	moduleIDs   map[string]uint16
	moduleNames []string

	domainIDs   map[string]uint8
	domainNames []string

	// Schedule-edge state. curDomain/dispatching describe the event
	// whose callback is currently running.
	curDomain   uint8
	dispatching bool
	intra       uint64
	cross       uint64
	external    uint64
	edges       [obsMaxDomains * obsMaxDomains]obsEdge

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

func newObs(cfg ObsConfig) *Obs {
	if cfg.SampleStride <= 0 {
		cfg.SampleStride = 32
	}
	if cfg.WindowEvents <= 0 {
		cfg.WindowEvents = 1 << 16
	}
	o := &Obs{
		classify:     cfg.Classify,
		stride:       uint32(cfg.SampleStride),
		windowEvents: uint64(cfg.WindowEvents),
		classIDs:     make(map[string]uint16, 64),
		moduleIDs:    make(map[string]uint16, 16),
		domainIDs:    make(map[string]uint8, obsMaxDomains),
		msamples: []metrics.Sample{
			{Name: "/gc/cycles/total:gc-cycles"},
			{Name: "/gc/heap/allocs:objects"},
			{Name: "/gc/heap/allocs:bytes"},
		},
	}
	if o.classify == nil {
		o.classify = func(name string) (string, string) {
			for i := 0; i < len(name); i++ {
				if name[i] == '.' {
					return name[:i], "global"
				}
			}
			return name, "global"
		}
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
func (e *Engine) AttachObs(cfg ObsConfig) *Obs {
	if e.seq != 0 {
		panic(fmt.Sprintf("sim: AttachObs after %d events were scheduled", e.seq))
	}
	e.obs = newObs(cfg)
	return e.obs
}

// Obs returns the attached observer, or nil when the engine runs dark.
func (e *Engine) Obs() *Obs { return e.obs }

// classOf interns an event name, classifying it on first sight.
func (o *Obs) classOf(name string) uint16 {
	if id, ok := o.classIDs[name]; ok {
		return id
	}
	module, domain := o.classify(name)
	mid, ok := o.moduleIDs[module]
	if !ok {
		mid = uint16(len(o.moduleNames))
		o.moduleIDs[module] = mid
		o.moduleNames = append(o.moduleNames, module)
	}
	did, ok := o.domainIDs[domain]
	if !ok {
		if len(o.domainNames) >= obsMaxDomains {
			did = obsMaxDomains - 1
		} else {
			did = uint8(len(o.domainNames))
			o.domainNames = append(o.domainNames, domain)
		}
		o.domainIDs[domain] = did
	}
	id := uint16(len(o.classNames))
	o.classNames = append(o.classNames, name)
	o.classModules = append(o.classModules, mid)
	o.classDomains = append(o.classDomains, did)
	o.classCounts = append(o.classCounts, 0)
	o.classHostNS = append(o.classHostNS, 0)
	o.classIDs[name] = id
	return id
}

// onSchedule stamps the event's class and, when the schedule was issued
// from inside another event's callback, classifies the causality edge.
func (o *Obs) onSchedule(ev *Event, now Time) {
	id := o.classOf(ev.name)
	ev.class = id
	if !o.dispatching {
		o.external++
		return
	}
	d := o.classDomains[id]
	if d == o.curDomain {
		o.intra++
		return
	}
	o.cross++
	e := &o.edges[int(o.curDomain)*obsMaxDomains+int(d)]
	la := int64(ev.at - now)
	e.count++
	e.sumLA += la
	if e.count == 1 || la < e.minLA {
		e.minLA = la
	}
}

// beginDispatch records a dispatch of the given class and takes the
// occasional wall-clock sample.
func (o *Obs) beginDispatch(class uint16) {
	o.classCounts[class]++
	o.curDomain = o.classDomains[class]
	o.dispatching = true
	if o.sinceSample++; o.sinceSample >= o.stride {
		o.sinceSample = 0
		now := hostNow()
		if d := now - o.lastSample; o.lastSample != 0 && d > 0 {
			o.classHostNS[class] += d
		}
		o.lastSample = now
		o.samples++
	}
	if o.sinceWindow++; o.sinceWindow >= o.windowEvents {
		o.rollWindow()
	}
}

// endDispatch marks the callback finished, so schedules issued outside
// any dispatch (setup code between runs) count as external.
func (o *Obs) endDispatch() { o.dispatching = false }

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
		out = append(out, ObsClassStat{
			Name:   name,
			Module: o.moduleNames[o.classModules[i]],
			Domain: o.domainNames[o.classDomains[i]],
			Count:  o.classCounts[i],
			HostNS: o.classHostNS[i],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Edges snapshots the non-empty cross-domain causality edges, sorted by
// (From, To).
func (o *Obs) Edges() []ObsEdgeStat {
	var out []ObsEdgeStat
	for f := 0; f < len(o.domainNames); f++ {
		for t := 0; t < len(o.domainNames); t++ {
			e := o.edges[f*obsMaxDomains+t]
			if e.count == 0 {
				continue
			}
			out = append(out, ObsEdgeStat{
				From:         o.domainNames[f],
				To:           o.domainNames[t],
				Count:        e.count,
				SumLookahead: Time(e.sumLA),
				MinLookahead: Time(e.minLA),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// EdgeTotals reports how schedules split: issued inside a dispatch into
// the same domain (intra), into another domain (cross), or outside any
// dispatch (external, e.g. workload setup).
func (o *Obs) EdgeTotals() (intra, cross, external uint64) {
	return o.intra, o.cross, o.external
}

// Domains lists the domains seen, in registration order.
func (o *Obs) Domains() []string {
	return append([]string(nil), o.domainNames...)
}

// Samples reports how many wall-clock samples were taken.
func (o *Obs) Samples() uint64 { return o.samples }

// Windows returns the completed GC/alloc windows.
func (o *Obs) Windows() []ObsWindow {
	return append([]ObsWindow(nil), o.windows...)
}
