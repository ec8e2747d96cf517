// Package kernel assembles the simulated machine: it wires the CPU
// scheduler, memory manager, file system, and disks together under the
// SPU resource manager, runs the periodic daemons (clock tick, memory
// sharing policy, delayed-write flusher), and drives workloads to
// completion. It is the stand-in for the modified IRIX 5.3 kernel of §3.
package kernel

import (
	"fmt"
	"io"

	"perfiso/internal/artifact"
	"perfiso/internal/control"
	"perfiso/internal/core"
	"perfiso/internal/disk"
	"perfiso/internal/fault"
	"perfiso/internal/fs"
	"perfiso/internal/invariant"
	"perfiso/internal/latency"
	"perfiso/internal/lock"
	"perfiso/internal/machine"
	"perfiso/internal/mem"
	"perfiso/internal/metrics"
	"perfiso/internal/proc"
	"perfiso/internal/profile"
	"perfiso/internal/sched"
	"perfiso/internal/sim"
	"perfiso/internal/simobs"
	"perfiso/internal/snap"
	"perfiso/internal/stats"
	"perfiso/internal/trace"
)

// Options tunes kernel behaviour. The zero value reproduces the paper's
// configuration for the given scheme.
type Options struct {
	// DiskSched overrides the scheme's disk scheduling policy: "Pos",
	// "Iso" or "PIso" (§4.5 compares all three on a PIso kernel).
	DiskSched string
	// BWThreshold is the PIso BW-difference threshold in sectors
	// (disk.DefaultBWThreshold when zero).
	BWThreshold float64
	// DiskMerge enables adjacent-request coalescing in the disk driver
	// (off by default: the paper's request counts assume the unmerged
	// IRIX 5.3 driver).
	DiskMerge bool
	// Reserve is the memory Reserve Threshold fraction (8 % when zero,
	// per §3.2).
	Reserve float64
	// InodeMutex switches the root inode lock back to mutual exclusion —
	// the original IRIX 5.3 behaviour §3.4 had to fix. The zero value is
	// the paper's fixed kernel (readers-writer).
	InodeMutex bool
	// PageInsertStripes sets the §3.4 page-insert-lock granularity:
	// 1 reproduces the original coarse lock, 0 means the fixed kernel's
	// default striping.
	PageInsertStripes int
	// InodeShards sets the inode-lock sharding (the §3.4 remediation
	// generalized): 0 or 1 is the single shared root inode; at or
	// above the SPU count every SPU's pathname traffic runs under a
	// private tree and inode-lock interference vanishes.
	InodeShards int
	// RunqLockHold and FrameLockHold give the accounting-only run-queue
	// and frame-pool lock models (internal/lock.Gate) a per-critical-
	// section cost, making their serialization measurable in the lock
	// table and the interference matrix. Zero keeps pure acquisition
	// counting. Gates never perturb event timing either way.
	RunqLockHold  sim.Time
	FrameLockHold sim.Time
	// CoarseKernelLocks forces the run-queue and frame-pool gates onto
	// one shared lock each even under isolating schemes — the unfixed
	// coarse kernel §3.4 warns about. By default the gates are shared
	// only under SMP (whose single global structures a coarse lock
	// matches) and per-SPU under Quo/PIso.
	CoarseKernelLocks bool
	// IPIRevoke enables immediate CPU revocation (§3.1 extension).
	IPIRevoke bool
	// CacheReload enables the §3.1 cache-pollution cost model: extra
	// CPU time paid by a thread dispatched onto a cold cache.
	CacheReload sim.Time
	// MinLoanInterval rate-limits CPU lending after a revocation
	// (§3.1's "more sophisticated" sharing policy sketch).
	MinLoanInterval sim.Time
	// Seed seeds all deterministic randomness (file placement).
	Seed uint64
	// TraceCapacity, when positive, turns on decision tracing with a
	// ring of that many events (see internal/trace).
	TraceCapacity int
	// MetricsPeriod, when positive, turns on the observability layer:
	// a per-SPU metrics registry whose series (CPU, memory, disk usage
	// per SPU) are sampled at this period on the simulation clock and
	// exportable as JSONL or a Chrome trace (see internal/metrics).
	MetricsPeriod sim.Time
	// LatencyWindow, when positive, turns on per-tenant tail-latency
	// tracking (internal/latency): workloads register request streams with
	// the kernel's latency registry and record each completed request into
	// an HDR-style histogram plus a percentile timeline with windows of
	// this width on the simulation clock. Exportable as JSONL, a summary
	// table, and Chrome-trace percentile counter tracks.
	LatencyWindow sim.Time
	// Profiled turns on the simulated-time profiler (internal/profile):
	// every thread's simulated nanoseconds are accounted to per-SPU
	// (resource, state) buckets, per-request span trees are recorded, and
	// cross-SPU interference is attributed to its culprit SPU. Off by
	// default; when off the hot paths pay only a nil check.
	Profiled bool
	// Horizon aborts the simulation if processes are still alive after
	// this much simulated time (default 3600 s) — a hang detector.
	Horizon sim.Time
	// AuditDisabled turns off the invariant auditor (internal/invariant),
	// which otherwise re-verifies the paper's conservation and isolation
	// invariants every tick and at every sharing boundary. On by default:
	// the checks are read-only, so they never change simulation results,
	// only catch a machine whose books stopped balancing.
	AuditDisabled bool
	// AuditCollect makes the auditor record violations instead of
	// panicking on the first one — the soak harness uses this to survey
	// a failure rather than die on its first symptom.
	AuditCollect bool
	// Faults, when non-empty, schedules deterministic hardware faults
	// (disk degradation, CPU stragglers/offlining, memory-frame loss)
	// at boot; see internal/fault.ParsePlan for the spec syntax.
	Faults *fault.Plan
	// SimObs attaches the simulator self-observability layer
	// (internal/simobs) to this kernel's engine: an event-class census,
	// event-queue telemetry and sampled host-time attribution. Off
	// (the default) the engine pays one nil check per schedule and per
	// dispatch and the results are byte-identical; see
	// Kernel.SimObsReport for reading the data back.
	SimObs bool
	// Control configures the closed-loop SLO entitlement controller
	// (internal/control). With Control.Enabled the kernel ticks the
	// controller on the latency-window cadence: it watches per-tenant
	// SLO burn, retunes SPU shares (CPU homes, memory frames, disk
	// bandwidth move together), tightens admission caps under overload,
	// and trips per-disk circuit breakers on injected faults. Off (the
	// zero value), no share is ever touched and every division is
	// bit-identical to the static weight-driven kernel. Enabling the
	// controller implies latency tracking: LatencyWindow defaults to
	// 500 ms when unset because the controller is blind without it.
	Control control.Config
}

func (o Options) withDefaults() Options {
	if o.BWThreshold <= 0 {
		o.BWThreshold = disk.DefaultBWThreshold
	}
	if o.Seed == 0 {
		o.Seed = 0x5eed
	}
	if o.Control.Enabled && o.LatencyWindow <= 0 {
		o.LatencyWindow = 500 * sim.Millisecond
	}
	if o.Horizon <= 0 {
		o.Horizon = 3600 * sim.Second
	}
	return o
}

// Kernel is one booted machine.
type Kernel struct {
	eng    *sim.Engine
	cfg    machine.Config
	scheme core.Scheme
	opts   Options

	spus   *core.Manager
	sch    *sched.Scheduler
	mm     *mem.Manager
	fsys   *fs.FileSystem
	disks  []*disk.Disk
	allocs []*fs.Allocator
	rng    *sim.RNG

	// Per-SPU disk affinity: swap and default file placement.
	affinity map[core.SPUID]int
	swapNext map[int]int64

	liveProcs int

	tickers  []*sim.Ticker
	booted   bool
	tracer   *trace.Tracer
	injector *fault.Injector
	metrics  *metrics.Registry
	latreg   *latency.Registry
	profiler *profile.Profiler
	auditor  *invariant.Auditor
	watchdog *invariant.Watchdog
	locks    *lock.Table
	ctl      *control.Controller
}

// New builds (but does not boot) a kernel on the given hardware with
// the given resource allocation scheme.
func New(cfg machine.Config, scheme core.Scheme, opts Options) *Kernel {
	cfg.Validate()
	opts = opts.withDefaults()
	eng := sim.NewEngine()
	if opts.SimObs {
		eng.AttachObs()
	}
	spus := core.NewManager()
	k := &Kernel{
		eng:      eng,
		cfg:      cfg,
		scheme:   scheme,
		opts:     opts,
		spus:     spus,
		rng:      sim.NewRNG(opts.Seed),
		affinity: make(map[core.SPUID]int),
		swapNext: make(map[int]int64),
	}
	k.sch = sched.New(eng, spus, cfg.CPUs, sched.Options{
		IPIRevoke:       opts.IPIRevoke,
		CacheReload:     opts.CacheReload,
		MinLoanInterval: opts.MinLoanInterval,
	})
	k.mm = mem.NewManager(eng, spus, cfg.Pages(), opts.Reserve)
	inodeMode := fs.SemRW
	if opts.InodeMutex {
		inodeMode = fs.SemMutex
	}
	k.fsys = fs.New(eng, k.mm, inodeMode)
	if opts.PageInsertStripes > 0 {
		k.fsys.SetPageInsertStripes(opts.PageInsertStripes)
	}
	if opts.InodeShards > 1 {
		k.fsys.SetInodeShards(opts.InodeShards)
	}
	// The kernel lock table: every modelled lock in one namespace for
	// audits, snapshots, and the pisosim lock report. Run-queue and
	// frame-pool gates are shared (one coarse lock) exactly when the
	// scheme hangs those structures under one lock: SMP, or forced by
	// CoarseKernelLocks.
	coarse := scheme == core.SMP || opts.CoarseKernelLocks
	k.sch.RunqLock = lock.NewGateSet(eng, "sched.runq", opts.RunqLockHold, coarse)
	k.mm.FrameLock = lock.NewGateSet(eng, "mem.framepool", opts.FrameLockHold, coarse)
	k.locks = lock.NewTable()
	k.locks.AddLocks(k.fsys.InodeLocks)
	k.locks.AddLocks(func() []*lock.Lock { return k.fsys.PageInsertLocks().Locks() })
	k.locks.AddGates(k.sch.RunqLock.Gates)
	k.locks.AddGates(k.mm.FrameLock.Gates)
	for _, dp := range cfg.Disks {
		d := disk.New(eng, dp, k.diskScheduler(), 0) // 0: the §3.3 500 ms half-life
		d.Merge = opts.DiskMerge
		k.disks = append(k.disks, d)
		k.allocs = append(k.allocs, fs.NewAllocator(d, k.rng.Fork()))
	}
	if opts.TraceCapacity > 0 {
		k.tracer = trace.New(eng, opts.TraceCapacity)
		k.sch.Trace = k.tracer
		k.mm.Trace = k.tracer
	}
	if opts.MetricsPeriod > 0 {
		k.metrics = metrics.New(eng, opts.MetricsPeriod)
		k.sch.Metrics = k.metrics
		k.mm.Metrics = k.metrics
		k.fsys.Metrics = k.metrics
	}
	if opts.LatencyWindow > 0 {
		k.latreg = latency.NewRegistry(opts.LatencyWindow)
	}
	if opts.Control.Enabled {
		k.ctl = control.New(opts.Control, eng, spus, k.latreg, k.disks, k.applyShares)
		k.ctl.Trace = k.tracer
		k.ctl.Metrics = k.metrics
	}
	if opts.Profiled {
		k.profiler = profile.New(eng)
		for _, d := range k.disks {
			d.Profile = k.profiler
		}
		k.fsys.SetLockProfile(k.profiler)
		k.sch.RunqLock.SetProfile(k.profiler)
		k.mm.FrameLock.SetProfile(k.profiler)
	}
	if !opts.AuditDisabled {
		k.auditor = invariant.New(invariant.Targets{
			Eng:     eng,
			SPUs:    spus,
			Sched:   k.sch,
			Mem:     k.mm,
			Disks:   k.disks,
			Profile: k.profiler,
			Locks:   k.locks,
			Control: k.ctl,
		})
		k.auditor.Collect = opts.AuditCollect
		k.auditor.Metrics = k.metrics
		k.auditor.Trace = k.tracer
		k.sch.AuditHook = func(reason string) { k.auditor.CheckSched(reason) }
		k.mm.AuditHook = func(reason string) { k.auditor.CheckMem(reason) }
	}
	k.watchdog = invariant.NewWatchdog()
	k.mm.SetPageout(k.pageout)
	// A little kernel memory: code and data pinned at boot (4 MB),
	// charged to the kernel SPU so its cost falls on everyone (§2.2).
	for i := 0; i < 4*machine.MB/mem.PageSize; i++ {
		p := k.mm.Allocate(core.KernelID, mem.Kernel, nil)
		if p != nil {
			k.mm.SetPinned(p, true)
		}
	}
	return k
}

// diskScheduler builds the disk scheduling policy implied by the scheme
// or the DiskSched override.
func (k *Kernel) diskScheduler() disk.Scheduler {
	name := k.opts.DiskSched
	if name == "" {
		switch k.scheme {
		case core.SMP:
			name = "Pos"
		case core.Quo:
			name = "Iso"
		default:
			name = "PIso"
		}
	}
	switch name {
	case "Pos":
		return disk.NewPos()
	case "Iso":
		return disk.NewIso()
	case "PIso":
		return disk.NewPIso(k.opts.BWThreshold)
	default:
		panic(fmt.Sprintf("kernel: unknown disk scheduler %q", name))
	}
}

// Engine returns the simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Scheduler returns the CPU scheduler.
func (k *Kernel) Scheduler() *sched.Scheduler { return k.sch }

// Memory returns the memory manager.
func (k *Kernel) Memory() *mem.Manager { return k.mm }

// FS returns the file system.
func (k *Kernel) FS() *fs.FileSystem { return k.fsys }

// SPUs returns the SPU manager.
func (k *Kernel) SPUs() *core.Manager { return k.spus }

// Tracer returns the decision tracer, or nil when tracing is off.
func (k *Kernel) Tracer() *trace.Tracer { return k.tracer }

// Scheme returns the machine's resource allocation scheme.
func (k *Kernel) Scheme() core.Scheme { return k.scheme }

// Disk returns disk i.
func (k *Kernel) Disk(i int) *disk.Disk { return k.disks[i] }

// NumDisks returns the number of disks.
func (k *Kernel) NumDisks() int { return len(k.disks) }

// Allocator returns the file allocator of disk i.
func (k *Kernel) Allocator(i int) *fs.Allocator { return k.allocs[i] }

// NewSPU creates a user SPU whose sharing policy follows the machine's
// scheme, with the given relative weight. An SPU created after Boot
// (§2.1 dynamic SPUs) gets its sampled series at once; call Rebalance to
// give it resources.
func (k *Kernel) NewSPU(name string, weight float64) *core.SPU {
	s := k.spus.NewSPU(name, weight, k.scheme.Policy())
	// Default disk affinity: spread SPUs across disks round-robin.
	k.affinity[s.ID()] = (int(s.ID()) - int(core.FirstUserID)) % len(k.disks)
	if k.booted && k.metrics != nil {
		k.registerSPUSeries(s)
	}
	return s
}

// SetAffinity pins an SPU's swap and default file placement to disk i.
func (k *Kernel) SetAffinity(spu core.SPUID, diskIdx int) {
	if diskIdx < 0 || diskIdx >= len(k.disks) {
		panic(fmt.Sprintf("kernel: disk %d out of range", diskIdx))
	}
	k.affinity[spu] = diskIdx
}

// AffinityDisk returns the disk an SPU's swap traffic goes to.
func (k *Kernel) AffinityDisk(spu core.SPUID) *disk.Disk {
	return k.disks[k.affinity[spu]]
}

// AffinityAllocator returns the file allocator on the SPU's disk.
func (k *Kernel) AffinityAllocator(spu core.SPUID) *fs.Allocator {
	return k.allocs[k.affinity[spu]]
}

// Boot divides resources per the contract and starts the daemons: the
// 10 ms clock tick (priority decay, CPU revocation), the memory sharing
// policy, and the delayed-write flusher.
func (k *Kernel) Boot() {
	if k.booted {
		panic("kernel: double boot")
	}
	k.booted = true
	k.sch.AssignHomes()
	k.mm.DivideAmongSPUs()
	k.applyDiskShares()
	// The 10 ms tick and the full invariant sweep share one event: the
	// sweep is read-only and every conservation invariant holds at every
	// event boundary, so batching it onto the tick halves the dominant
	// periodic event count without changing simulation results. When the
	// engine carries an observer the sweep instead gets its own
	// same-period ticker (created right after the tick's, so FIFO seq
	// order keeps it firing immediately after the tick at each instant):
	// the audit cost then shows up under its own "auditor.sweep" class in
	// host-time attribution instead of hiding inside kernel.tick.
	observed := k.eng.Obs() != nil
	tick := k.sch.Tick
	if k.auditor != nil && !observed {
		a := k.auditor
		tick = func() {
			k.sch.Tick()
			a.CheckAll("tick")
		}
	}
	k.tickers = append(k.tickers,
		k.eng.Every(sched.TickPeriod, "kernel.tick", tick))
	if k.auditor != nil && observed {
		a := k.auditor
		k.tickers = append(k.tickers,
			k.eng.Every(sched.TickPeriod, "auditor.sweep", func() { a.CheckAll("tick") }))
	}
	k.tickers = append(k.tickers,
		k.eng.Every(mem.PolicyPeriod, "kernel.mempolicy", k.mm.PolicyTick),
		k.eng.Every(fs.FlushPeriod, "kernel.bdflush", k.fsys.FlushTick),
	)
	if k.metrics != nil {
		k.registerSeries()
		k.tickers = append(k.tickers,
			k.eng.Every(k.metrics.Period(), "kernel.metrics", k.metrics.Sample))
	}
	if k.ctl != nil {
		k.tickers = append(k.tickers,
			k.eng.Every(k.latreg.Window(), "kernel.control", k.ctl.Tick))
	}
	if !k.opts.Faults.Empty() {
		k.injector = fault.NewInjector(k.eng, fault.Machine{
			Sched:     k.sch,
			Mem:       k.mm,
			Disks:     k.disks,
			Rebalance: k.Rebalance,
			Trace:     k.tracer,
			Metrics:   k.metrics,
		}, k.opts.Faults, k.rng.Fork())
	}
}

// registerSeries installs the per-SPU sampled series and machine-wide
// gauges at boot, once the SPUs exist. Everything registered here only
// reads machine state, so sampling never perturbs simulation results.
func (k *Kernel) registerSeries() {
	for _, s := range k.spus.Users() {
		k.registerSPUSeries(s)
	}
	k.metrics.Gauge(metrics.KeyMemFree, metrics.NoSPU, func() float64 {
		return float64(k.mm.FreePages())
	})
	k.metrics.Gauge(metrics.KeyDiskWaitMean, metrics.NoSPU, func() float64 {
		var w float64
		for _, d := range k.disks {
			w += d.Total.Wait.Mean()
		}
		return w / float64(len(k.disks))
	})
	k.metrics.Gauge(metrics.KeyDiskServiceMean, metrics.NoSPU, func() float64 {
		var w float64
		for _, d := range k.disks {
			w += d.Total.Service.Mean()
		}
		return w / float64(len(k.disks))
	})
}

// registerSPUSeries installs one user SPU's sampled series: at boot for
// the SPUs that exist then, and from NewSPU for SPUs created later.
func (k *Kernel) registerSPUSeries(s *core.SPU) {
	id := s.ID()
	k.metrics.Series(metrics.KeyCPUUsed, id, func() float64 {
		return s.Used(core.CPU)
	})
	k.metrics.Series(metrics.KeyCPUTime, id, func() float64 {
		if pt := k.sch.PerSPUTime[id]; pt != nil {
			return pt.Seconds()
		}
		return 0
	})
	k.metrics.Series(metrics.KeyMemResident, id, func() float64 {
		return s.Used(core.Memory)
	})
	k.metrics.Series(metrics.KeyMemLoaned, id, func() float64 {
		if loan := s.Allowed(core.Memory) - s.Entitled(core.Memory); loan > 0 {
			return loan
		}
		return 0
	})
	k.metrics.Series(metrics.KeyDiskQueue, id, func() float64 {
		n := 0
		for _, d := range k.disks {
			n += d.QueuedFor(id)
		}
		return float64(n)
	})
	k.metrics.Series(metrics.KeyDiskSectors, id, func() float64 {
		var n int64
		for _, d := range k.disks {
			n += d.SectorsFor(id)
		}
		return float64(n)
	})
}

// Metrics returns the metrics registry, or nil when observability is off.
func (k *Kernel) Metrics() *metrics.Registry { return k.metrics }

// Latency returns the latency registry, or nil when latency tracking is
// off (Options.LatencyWindow). Workloads register streams against it
// unconditionally — a nil registry hands out nil no-op trackers.
func (k *Kernel) Latency() *latency.Registry { return k.latreg }

// WriteLatency writes every latency tracker (summary, SLO, and window
// timeline lines) as deterministic JSONL. An error when latency
// tracking is off.
func (k *Kernel) WriteLatency(w io.Writer) error {
	if k.latreg == nil {
		return fmt.Errorf("kernel: latency tracking is off (Options.LatencyWindow)")
	}
	return k.latreg.WriteJSONL(w)
}

// LatencyTable summarizes every latency stream: request counts
// (censored in-flight requests called out separately), tail
// percentiles, and SLO attainment. Nil when latency tracking is off or
// nothing was recorded.
func (k *Kernel) LatencyTable() *stats.Table {
	if k.latreg == nil || k.latreg.Empty() {
		return nil
	}
	t := stats.NewTable("Per-tenant latency",
		"Tenant", "Requests", "Censored", "p50 (ms)", "p99 (ms)", "p999 (ms)", "Max (ms)", "SLO", "Attain (%)")
	ms := func(ns int64) float64 { return float64(ns) / float64(sim.Millisecond) }
	for _, tr := range k.latreg.Trackers() {
		h := tr.Total()
		if h.Count() == 0 {
			continue
		}
		slo, attain := "-", "-"
		if tr.Obj.Valid() {
			slo = fmt.Sprintf("%.0f%%<%.0fms", tr.Obj.Target*100, ms(int64(tr.Obj.Threshold)))
			attain = fmt.Sprintf("%.2f", tr.Attainment())
		}
		t.Addf(tr.Name, h.Count(), tr.Censored(),
			ms(h.Quantile(0.50)), ms(h.Quantile(0.99)), ms(h.Quantile(0.999)),
			ms(h.Max()), slo, attain)
	}
	return t
}

// latencyTracks converts each tracker's window timeline into Chrome
// counter tracks (p50/p99/p999 in ms, one point per non-empty window at
// the window's end), so tail behaviour lines up with the usage series
// and profiler spans on the SPU's track.
func (k *Kernel) latencyTracks() []metrics.CounterTrack {
	if k.latreg == nil {
		return nil
	}
	var out []metrics.CounterTrack
	for _, tr := range k.latreg.Trackers() {
		ws := tr.Windows()
		if len(ws) == 0 {
			continue
		}
		mk := func(q string, pick func(latency.WindowStat) int64) metrics.CounterTrack {
			t := metrics.CounterTrack{Name: tr.Name + " " + q + " (ms)", SPU: tr.SPU}
			for _, w := range ws {
				t.TS = append(t.TS, w.End)
				t.VS = append(t.VS, float64(pick(w))/float64(sim.Millisecond))
			}
			return t
		}
		out = append(out,
			mk("p50", func(w latency.WindowStat) int64 { return w.P50 }),
			mk("p99", func(w latency.WindowStat) int64 { return w.P99 }),
			mk("p999", func(w latency.WindowStat) int64 { return w.P999 }),
		)
	}
	return out
}

// Profile implements proc.Env: it returns the simulated-time profiler,
// or nil when profiling is off. Processes started on this kernel (and
// their forked children) register their threads with it.
func (k *Kernel) Profile() *profile.Profiler { return k.profiler }

// MetricNames maps every SPU id (kernel, shared, users) to its name for
// metric and trace exports.
func (k *Kernel) MetricNames() metrics.Names {
	names := make(metrics.Names, len(k.spus.All()))
	for _, s := range k.spus.All() {
		names[s.ID()] = s.Name()
	}
	return names
}

// Artifacts lists one file per export of the enabled observers, in a
// fixed order: metrics.jsonl and trace.json with metrics on,
// profile.pb.gz and spans.jsonl with the profiler, latency.jsonl with a
// latency registry holding at least one stream, controller.jsonl with
// the controller. An observer that is off (or, for latency, has no
// stream to export) has no entry, so every listed writer succeeds and
// writes something.
func (k *Kernel) Artifacts() []artifact.File {
	var set []artifact.File
	if k.metrics != nil {
		set = append(set, artifact.File{Name: "metrics.jsonl", Write: k.WriteMetrics},
			artifact.File{Name: "trace.json", Write: k.WriteChromeTrace})
	}
	if k.profiler != nil {
		set = append(set, artifact.File{Name: "profile.pb.gz", Write: k.WriteProfile},
			artifact.File{Name: "spans.jsonl", Write: k.WriteSpans})
	}
	if len(k.latreg.Trackers()) > 0 {
		set = append(set, artifact.File{Name: "latency.jsonl", Write: k.WriteLatency})
	}
	if k.ctl != nil {
		set = append(set, artifact.File{Name: "controller.jsonl", Write: k.WriteController})
	}
	return set
}

// WriteMetrics writes the registry as deterministic JSONL (one metric
// per line). A no-op when observability is off.
func (k *Kernel) WriteMetrics(w io.Writer) error {
	return k.metrics.WriteJSONL(w, k.MetricNames())
}

// WriteChromeTrace writes a Chrome trace-event file: one counter track
// per SPU from the sampled series, plus the decision tracer's events as
// instant markers when tracing is on. A no-op when observability is off.
func (k *Kernel) WriteChromeTrace(w io.Writer) error {
	return k.metrics.WriteChromeTrace(w, k.tracer.Events(), k.MetricNames(), k.profileSpanEvents(), k.latencyTracks())
}

// WriteProfile writes the profiler's buckets and interference matrix as
// a gzipped pprof profile (folded stacks spu;resource;state). An error
// when profiling is off.
func (k *Kernel) WriteProfile(w io.Writer) error {
	if k.profiler == nil {
		return fmt.Errorf("kernel: profiling is off (Options.Profiled)")
	}
	return k.profiler.WritePprof(w)
}

// WriteSpans writes the profiler's per-request spans as deterministic
// JSONL. An error when profiling is off.
func (k *Kernel) WriteSpans(w io.Writer) error {
	if k.profiler == nil {
		return fmt.Errorf("kernel: profiling is off (Options.Profiled)")
	}
	return k.profiler.WriteSpans(w)
}

// profileSpanEvents converts the profiler's spans into the metrics
// exporter's neutral form, so they render as duration slices (with flow
// arrows from disk service to the stall it resolved) in the Chrome
// trace. Nil when profiling is off.
func (k *Kernel) profileSpanEvents() []metrics.SpanEvent {
	if k.profiler == nil {
		return nil
	}
	spans := k.profiler.Spans()
	out := make([]metrics.SpanEvent, 0, len(spans))
	for _, s := range spans {
		ev := metrics.SpanEvent{
			Name:  s.Name,
			SPU:   s.SPU,
			Track: s.Proc,
			Start: s.Start,
			End:   s.End,
		}
		if s.Culprit != s.SPU {
			ev.Culprit = profile.SPUName(s.Culprit)
		}
		if s.Flow != 0 {
			ev.FlowID = s.Flow
			ev.FlowIn = true
		}
		if s.Name == "disk:service" {
			ev.FlowID = s.ID
			ev.FlowOut = true
		}
		out = append(out, ev)
	}
	return out
}

// UsageTable summarizes the sampled per-SPU series, or nil when
// observability is off.
func (k *Kernel) UsageTable() *stats.Table {
	if k.metrics == nil {
		return nil
	}
	return k.metrics.UsageTable(k.MetricNames())
}

// Injector returns the fault injector, or nil when no faults are
// scheduled.
func (k *Kernel) Injector() *fault.Injector { return k.injector }

// Timeline renders the sampled per-SPU series as sparkline rows: each
// user SPU's CPU occupancy (in CPUs) and memory usage (in MB). An SPU
// created after boot reads zero before its first sample, so every row
// spans the same sample instants. Nil when observability is off.
func (k *Kernel) Timeline() *stats.Timeline {
	if k.metrics == nil {
		return nil
	}
	samples := 0
	for _, s := range k.metrics.AllSeries() {
		samples = max(samples, s.Len())
	}
	tl := stats.NewTimeline()
	for _, s := range k.spus.Users() {
		cpu := k.metrics.FindSeries(metrics.KeyCPUUsed, s.ID())
		res := k.metrics.FindSeries(metrics.KeyMemResident, s.ID())
		if cpu == nil || res == nil {
			continue
		}
		// The render stretches each row over the full width, so a late
		// SPU's row needs leading zeros to line up in time.
		for i := cpu.Len(); i < samples; i++ {
			tl.Record("cpu "+s.Name(), 0)
			tl.Record("mem "+s.Name(), 0)
		}
		for _, v := range cpu.Values() {
			tl.Record("cpu "+s.Name(), v)
		}
		for _, v := range res.Values() {
			tl.Record("mem "+s.Name(), v*mem.PageSize/float64(machine.MB))
		}
	}
	return tl
}

// Rebalance re-divides CPUs and memory among the currently active SPUs.
// Call it after creating, suspending, or waking SPUs at runtime (§2.1:
// "SPUs can be created and destroyed dynamically, or could be suspended
// ... and awakened at a later time"). CPUs re-home immediately (running
// foreign threads become loans, revoked at the next tick); memory
// entitlements shift and the reclaim path enforces the new limits.
func (k *Kernel) Rebalance() {
	k.sch.AssignHomes()
	k.mm.PolicyTick()
}

// applyDiskShares pushes every SPU's current share into the per-disk
// bandwidth schedulers: each disk weighs the SPUs with affinity to it.
// Share() equals the static weight until the controller retunes, so
// with the controller off this is the weight-driven division.
func (k *Kernel) applyDiskShares() {
	for i, d := range k.disks {
		for spu, di := range k.affinity {
			if di == i {
				d.SetShare(spu, k.spus.Get(spu).Share())
			}
		}
	}
}

// applyShares is the controller's actuator: after a retune it re-homes
// CPUs, re-divides memory (loans preserved, reclaim enforcing the new
// entitlements), and refreshes the disk bandwidth shares — one share
// value moving all three resources coherently.
func (k *Kernel) applyShares() {
	k.Rebalance()
	k.applyDiskShares()
}

// Controller returns the SLO feedback controller, or nil when the
// closed loop is off (Options.Control.Enabled).
func (k *Kernel) Controller() *control.Controller { return k.ctl }

// AdmitRequest asks admission control whether an arriving request on
// the SPU may start. Always true when the controller is off; a false
// return means the request is shed — the caller must record the shed
// into its latency tracker (censoring-correct accounting) and must not
// call RequestDone.
func (k *Kernel) AdmitRequest(spu core.SPUID) bool {
	if k.ctl == nil {
		return true
	}
	return k.ctl.Admit(spu)
}

// RequestDone releases an admitted request's in-flight slot. A no-op
// when the controller is off.
func (k *Kernel) RequestDone(spu core.SPUID) {
	if k.ctl != nil {
		k.ctl.Done(spu)
	}
}

// WriteController writes the controller's decision log as
// deterministic JSONL: one header line with the effective config and
// totals, then one line per action in decision order. An error when
// the controller is off.
func (k *Kernel) WriteController(w io.Writer) error {
	if k.ctl == nil {
		return fmt.Errorf("kernel: controller is off (Options.Control.Enabled)")
	}
	return control.WriteJSONL(w, k.ctl)
}

// Spawn registers a process with the kernel's liveness accounting and
// starts it. Only roots need registering: children created with
// proc.Fork are covered by their parent's WaitChildren step.
func (k *Kernel) Spawn(p *proc.Process) {
	if !k.booted {
		panic("kernel: Spawn before Boot")
	}
	k.liveProcs++
	prev := p.OnExit
	p.OnExit = func(pp *proc.Process) {
		k.liveProcs--
		if prev != nil {
			prev(pp)
		}
	}
	p.Start()
}

// Run drives the simulation until every tracked process has exited,
// then stops the daemons and drains residual events. It returns the
// completion time. It panics if the horizon passes with processes
// still alive — a deadlock in the machine model.
func (k *Kernel) Run() sim.Time {
	if !k.booted {
		panic("kernel: Run before Boot")
	}
	for k.liveProcs > 0 {
		if !k.eng.Step() {
			panic(fmt.Sprintf("kernel: event queue drained with %d processes alive", k.liveProcs))
		}
		if err := k.watchdog.Observe(k.eng.Now(), k.eng.Dispatched()); err != nil {
			// Deliver by panic so a wedged simulation cannot also wedge
			// the host; the soak harness recovers the *TripError.
			panic(err)
		}
		if k.eng.Now() > k.opts.Horizon {
			panic(fmt.Sprintf("kernel: horizon %v exceeded with %d processes alive", k.opts.Horizon, k.liveProcs))
		}
	}
	end := k.eng.Now()
	for _, t := range k.tickers {
		t.Stop()
	}
	k.eng.Run() // drain in-flight IO and daemons
	if k.auditor != nil {
		// One last sweep after the drain: the final exits (and any profile
		// conservation violations they record) happen after the last tick.
		k.auditor.CheckAll("final")
	}
	return end
}

// RunUntil advances the simulation to the given instant and stops,
// with daemons still armed and processes mid-flight — the
// checkpoint/replay entry point. Because the engine is deterministic,
// re-running a scenario to the same instant reproduces the same state;
// Snapshot proves it byte-for-byte. Run may be called afterwards to
// finish the run.
func (k *Kernel) RunUntil(t sim.Time) {
	if !k.booted {
		panic("kernel: RunUntil before Boot")
	}
	k.eng.RunUntil(t)
}

// Snapshot serialises the simulation state — clock, pending events,
// SPU resource levels, scheduler, memory, disks, injector, and process
// liveness — as a deterministic text document (internal/snap). Two runs
// of the same scenario paused at the same instant produce identical
// bytes; the soak harness and the replay tests compare digests to prove
// checkpoint/restore exactness.
func (k *Kernel) Snapshot() []byte {
	enc := snap.NewEncoder()
	k.eng.Snapshot(enc)
	enc.Section("spus")
	for _, u := range k.spus.All() {
		for r := core.Resource(0); r < core.NumResources; r++ {
			pre := fmt.Sprintf("spu%d_r%d", u.ID(), r)
			enc.Float(pre+"_ent", u.Entitled(r))
			enc.Float(pre+"_alw", u.Allowed(r))
			enc.Float(pre+"_used", u.Used(r))
		}
	}
	k.sch.Snapshot(enc)
	k.mm.Snapshot(enc)
	for _, d := range k.disks {
		d.Snapshot(enc)
	}
	if k.injector != nil {
		k.injector.Snapshot(enc)
	}
	k.locks.Snapshot(enc)
	if k.ctl != nil {
		k.ctl.Snapshot(enc)
	}
	enc.Section("kernel")
	enc.Int("live_procs", int64(k.liveProcs))
	return enc.Bytes()
}

// SimObsReport reads this kernel's engine telemetry into a simulator
// self-observability report, or returns nil when Options.SimObs was off.
func (k *Kernel) SimObsReport(scenario string) *simobs.Report {
	if k.eng.Obs() == nil {
		return nil
	}
	return simobs.Build(scenario, k.eng)
}

// Auditor returns the invariant auditor, or nil when disabled.
func (k *Kernel) Auditor() *invariant.Auditor { return k.auditor }

// Locks returns the kernel lock table: every modelled lock — the §3.4
// fs semaphores plus the run-queue and frame-pool gates — in one
// namespace for reports, audits, and snapshots.
func (k *Kernel) Locks() *lock.Table { return k.locks }

// Watchdog returns the livelock watchdog that guards Run.
func (k *Kernel) Watchdog() *invariant.Watchdog { return k.watchdog }

// pageout routes dirty evicted pages to backing store: cache pages to
// their file location, anonymous pages to the owning SPU's swap region,
// both scheduled under the shared SPU with charge-back (§3.3). Cache
// write-backs retry failed transfers inside the file system; failed
// swap writes report ok=false and the memory manager retries with
// backoff.
func (k *Kernel) pageout(p *mem.Page, done func(ok bool)) {
	if k.fsys.WritebackEvicted(p, func() { done(true) }) {
		return
	}
	di := k.swapDisk(p.SPU)
	k.disks[di].Submit(&disk.Request{
		Kind:    disk.Write,
		Sector:  k.swapSlot(di, mem.SectorsPerPage),
		Count:   mem.SectorsPerPage,
		SPU:     core.SharedID,
		Charges: []disk.Charge{{SPU: p.SPU, Sectors: mem.SectorsPerPage}},
		Done:    func(r *disk.Request) { done(!r.Failed) },
	})
}

// swapDisk picks the disk for an SPU's swap traffic: its affinity disk
// normally, or — when the controller's circuit breaker has that disk
// open (fault-degraded) — the nearest healthy disk. The swap region is
// a model, not a persistent placement, so degraded-mode routing moves
// reads and writes together until the breaker heals.
func (k *Kernel) swapDisk(spu core.SPUID) int {
	di := k.affinity[spu]
	if k.ctl != nil && k.ctl.BreakerOpen(di) {
		if fb := k.ctl.Fallback(di); fb >= 0 {
			k.metrics.Counter(metrics.KeyControlFailovers, spu).Inc()
			k.tracer.Emitf(trace.Control, fmt.Sprintf("spu%d", spu), "swap-failover",
				"disk%d breaker open, routing swap to disk%d", di, fb)
			return fb
		}
	}
	return di
}

// swapSlot hands out sectors in disk di's swap region — the top eighth
// of the disk — round-robin.
func (k *Kernel) swapSlot(di int, sectors int64) int64 {
	d := k.disks[di]
	total := d.Params().TotalSectors()
	region := total / 8
	base := total - region
	off := k.swapNext[di]
	if off+sectors > region {
		off = 0
	}
	k.swapNext[di] = off + sectors
	return base + off
}

// SwapIn implements proc.Env: clustered reads from the SPU's swap
// region, 4 pages per request.
func (k *Kernel) SwapIn(spu core.SPUID, pages int, done func()) {
	if pages <= 0 {
		done()
		return
	}
	di := k.swapDisk(spu)
	reqs := (pages + 3) / 4
	left := reqs
	for i := 0; i < reqs; i++ {
		n := 4
		if i == reqs-1 {
			n = pages - 4*(reqs-1)
		}
		count := n * mem.SectorsPerPage
		k.submitRetry(di, &disk.Request{
			Kind:   disk.Read,
			Sector: k.swapSlot(di, int64(count)),
			Count:  count,
			SPU:    spu,
			Done: func(*disk.Request) {
				left--
				if left == 0 {
					done()
				}
			},
		})
	}
}

// submitRetry issues a swap-region disk request, resubmitting transfers
// failed by an injected fault with exponential backoff under a
// deadline-aware retry budget (control.NewBudget). While the budget
// lasts the schedule matches the old unbounded loop exactly; once it is
// spent the request fails over to the circuit breaker's fallback disk
// (when one is healthy) or keeps retrying only at the bounded slow-lane
// cadence, so a long fault can no longer turn the swap path into a
// full-rate retry storm. The original Done callback only ever sees a
// successful request.
func (k *Kernel) submitRetry(di int, r *disk.Request) {
	budget := control.NewBudget()
	inner := r.Done
	r.Done = func(rr *disk.Request) {
		if rr.Failed {
			wait, degraded := budget.Next()
			if degraded {
				fb := -1
				if k.ctl != nil {
					fb = k.ctl.Fallback(di)
				}
				if fb >= 0 && fb != di {
					di = fb
					k.metrics.Counter(metrics.KeyControlFailovers, rr.SPU).Inc()
					k.tracer.Emitf(trace.Control, fmt.Sprintf("spu%d", rr.SPU), "swap-failover",
						"retry budget spent, failing over to disk%d", fb)
				} else {
					k.metrics.Counter(metrics.KeyControlClamped, rr.SPU).Inc()
					k.tracer.Emitf(trace.Control, fmt.Sprintf("spu%d", rr.SPU), "swap-slow-lane",
						"retry budget spent, no healthy fallback, retrying every %v", wait)
				}
			}
			k.metrics.Counter(metrics.KeySwapRetries, rr.SPU).Inc()
			k.metrics.Counter(metrics.KeySwapBackoffNS, rr.SPU).AddTime(wait)
			rr.Backoff += wait // profiled separately from genuine queueing
			k.tracer.Emitf(trace.Fault, fmt.Sprintf("spu%d", rr.SPU), "swap-retry",
				"%s of %d sectors failed, retrying in %v", rr.Kind, rr.Count, wait)
			k.eng.After(wait, "kernel.swap-retry", func() { k.disks[di].Submit(rr) })
			return
		}
		if inner != nil {
			inner(rr)
		}
	}
	k.disks[di].Submit(r)
}
