package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"strings"
	"time"

	"perfiso/internal/control"
	"perfiso/internal/core"
	"perfiso/internal/kernel"
	"perfiso/internal/metrics"
	"perfiso/internal/proc"
	"perfiso/internal/sim"
)

// A variant is one observer configuration. lit is how the registry
// runs (profiler, fail-fast auditor and metrics on); the others turn
// exactly one observer off, all three off, or attach the simulator's
// own event observer (internal/simobs) for the traced pass.
type variant struct {
	name  string
	apply func(*kernel.Options)
}

var (
	lit        = variant{"lit", func(*kernel.Options) {}}
	traced     = variant{"traced", func(o *kernel.Options) { o.SimObs = true }}
	profileOff = variant{"profile-off", func(o *kernel.Options) { o.Profiled = false }}
	auditOff   = variant{"audit-off", func(o *kernel.Options) { o.AuditDisabled = true }}
	metricsOff = variant{"metrics-off", func(o *kernel.Options) { o.MetricsPeriod = 0 }}
	dark       = variant{"dark", func(o *kernel.Options) {
		o.Profiled, o.AuditDisabled, o.MetricsPeriod = false, true, 0
	}}
)

// options is the kernel configuration of one rep: the registry's
// observer set, the seed, the scenario's own options, then the variant.
func options(sc *scenario, seed uint64, v variant) kernel.Options {
	o := kernel.Options{Seed: seed, Profiled: true, MetricsPeriod: metrics.DefaultPeriod}
	if sc.options != nil {
		sc.options(&o)
	}
	v.apply(&o)
	return o
}

// rep is one measured build-run-export cycle.
type rep struct {
	seed                   uint64        // the instance's input seed
	newKernel, boot, build time.Duration // set-up phases
	run                    time.Duration
	exports                map[string]time.Duration // exporter -> host time
	allocs                 uint64                   // heap objects allocated, set-up to export
	allocBytes             uint64
	liveHeap               uint64 // HeapAlloc after a forced GC, kernel reachable
	simEnd                 sim.Time
	digest                 string // simulated results; equal across reps and variants
	layers                 map[string]float64
	hostNS                 map[string]int64 // module -> sampled host ns (traced only)
}

func (r *rep) setup() time.Duration { return r.newKernel + r.boot + r.build }

func (r *rep) export() time.Duration {
	var d time.Duration
	for _, e := range r.exports {
		d += e
	}
	return d
}

// runRep builds the scenario, runs it, exports every enabled artifact
// to a discarding writer, and reads back its results. A panic inside
// the simulator (an auditor violation, a watchdog trip, a horizon
// abort) comes back as an error, as do an exporter error and a batch
// job that did not finish. When spans is non-nil the rep's phases are
// recorded under runID.
func runRep(sc *scenario, seed uint64, scale int, v variant, spans *spanLog, runID string) (r *rep, err error) {
	defer func() {
		if p := recover(); p != nil {
			r, err = nil, fmt.Errorf("%s/%s: %v", sc.name, v.name, p)
		}
	}()
	opts := options(sc, seed, v)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	t0 := time.Now()
	k := kernel.New(sc.machine(), sc.scheme, opts)
	t1 := time.Now()
	ids := make([]core.SPUID, len(sc.spus))
	for i, s := range sc.spus {
		ids[i] = k.NewSPU(s.name, s.weight).ID()
		if s.disk >= 0 {
			k.SetAffinity(ids[i], s.disk)
		}
	}
	k.Boot()
	t2 := time.Now()
	j := sc.spawn(k, ids, seed, scale)
	t3 := time.Now()
	end := j.horizon
	if end > 0 {
		k.RunUntil(end)
		for _, t := range j.tenants {
			t.job.CensorTail(end)
		}
	} else {
		end = k.Run()
	}
	t4 := time.Now()

	r = &rep{
		seed: seed, newKernel: t1.Sub(t0), boot: t2.Sub(t1), build: t3.Sub(t2), run: t4.Sub(t3),
		exports: map[string]time.Duration{}, simEnd: end,
	}
	children := []span{
		{Name: "setup.kernel_new", Start: spans.at(t0), End: spans.at(t1)},
		{Name: "setup.boot", Start: spans.at(t1), End: spans.at(t2)},
		{Name: "setup.workloads", Start: spans.at(t2), End: spans.at(t3)},
		{Name: "run", Start: spans.at(t3), End: spans.at(t4)},
	}
	// Every artifact is written exportPasses times and its fastest write
	// kept; the allocation figures cover set-up, the run and the first
	// pass.
	for pass := 0; pass < exportPasses; pass++ {
		for _, e := range exporters(k, opts) {
			s := time.Now()
			if err := e.write(io.Discard); err != nil {
				return nil, fmt.Errorf("%s/%s: export %s: %w", sc.name, v.name, e.name, err)
			}
			done := time.Now()
			if d := done.Sub(s); pass == 0 || d < r.exports[e.name] {
				r.exports[e.name] = d
			}
			children = append(children, span{Name: "export." + e.name, Start: spans.at(s), End: spans.at(done)})
		}
		if pass == 0 {
			runtime.ReadMemStats(&after)
			r.allocs = after.Mallocs - before.Mallocs
			r.allocBytes = after.TotalAlloc - before.TotalAlloc
		}
	}
	t5 := time.Now()

	runtime.GC()
	runtime.ReadMemStats(&after)
	r.liveHeap = after.HeapAlloc

	for _, p := range j.batch {
		if p.State() != proc.Exited || p.Finished > end {
			return nil, fmt.Errorf("%s/%s: job %s did not finish by %v", sc.name, v.name, p.Name, end)
		}
	}
	r.layers = layers(k, j)
	r.digest = digest(k, j)
	if k.Engine().Obs() != nil {
		r.hostNS = map[string]int64{}
		for _, m := range k.SimObsReport(sc.name).ModuleHosts() {
			r.hostNS[m.Module] = m.HostNS
		}
	}
	runtime.KeepAlive(k)

	if spans != nil {
		root := spans.add(runID, 0, span{Name: "rep", Start: spans.at(t0), End: spans.at(t5)})
		for _, s := range children {
			spans.add(runID, root, s)
		}
	}
	return r, nil
}

// exportPasses is how many times a rep writes its artifacts. A write
// takes 2 to 90 ms, short enough for one burst of host interference to
// dominate it; the fastest of three is a steadier measure.
const exportPasses = 3

// exporter is one artifact writer the kernel offers.
type exporter struct {
	name  string
	write func(io.Writer) error
}

// exporters lists the artifact writers the options enable, in a fixed
// order: the artifacts pisosim and pisobench write for the same run.
func exporters(k *kernel.Kernel, o kernel.Options) []exporter {
	var out []exporter
	if o.MetricsPeriod > 0 {
		out = append(out, exporter{"metrics", k.WriteMetrics})
	}
	if o.Profiled {
		out = append(out, exporter{"profile", func(w io.Writer) error {
			if err := k.WriteProfile(w); err != nil {
				return err
			}
			return k.WriteSpans(w)
		}})
	}
	if k.Latency() != nil {
		out = append(out, exporter{"latency", k.WriteLatency})
	}
	if k.Controller() != nil {
		out = append(out, exporter{"control", k.WriteController})
	}
	return out
}

// digest records the simulated results: every job's response time,
// each tenant's request counts and p99, and the scheduler, memory,
// file-system and disk counters. Observers and the event core must not
// change it, so it is equal across reps, across variants, and (for the
// reference rep) to the hash recorded in reference.go.
func digest(k *kernel.Kernel, j *jobs) string {
	var b strings.Builder
	for _, p := range j.batch {
		fmt.Fprintf(&b, "job %s %d\n", p.Name, p.ResponseTime())
	}
	for _, t := range j.tenants {
		tr := t.job.Tracker()
		fmt.Fprintf(&b, "tenant %s n=%d censored=%d shed=%d p99=%d\n",
			tr.Name, tr.Count(), tr.Censored(), tr.Shed(), tr.Total().Quantile(0.99))
	}
	// Fields are named one by one so that a counter added to a Stats
	// struct later does not change the digest.
	ss := &k.Scheduler().Stat
	fmt.Fprintf(&b, "sched dispatch=%d preempt=%d loan=%d revoke=%d gang=%d reload=%d damped=%d\n",
		ss.Dispatches, ss.Preemptions, ss.Loans, ss.Revocations, ss.GangPlacements, ss.CacheReloads, ss.LoansDamped)
	ms := &k.Memory().Stat
	fmt.Fprintf(&b, "mem alloc=%d deny=%d evict=%d dirty=%d retry=%d clamp=%d retag=%d\n",
		ms.Allocations, ms.Denials, ms.Evictions, ms.DirtyWrites, ms.PageoutRetries, ms.PageoutClamped, ms.Retags)
	fs := &k.FS().Stat
	fmt.Fprintf(&b, "fs hit=%d miss=%d read=%d write=%d meta=%d flush=%d lookup=%d retry=%d clamp=%d\n",
		fs.Hits, fs.Misses, fs.ReadReqs, fs.WriteReqs, fs.MetaWrites, fs.Flushes, fs.Lookups, fs.Retries, fs.Clamped)
	for i := 0; i < k.NumDisks(); i++ {
		t := &k.Disk(i).Total
		fmt.Fprintf(&b, "disk%d req=%d sect=%d merge=%d fail=%d\n", i, t.Requests, t.Sectors, t.Merges, t.Failures)
	}
	return b.String()
}

// digestHash is the short form of a digest kept in reference.go.
func digestHash(d string) string {
	h := fnv.New64a()
	h.Write([]byte(d))
	return fmt.Sprintf("%016x", h.Sum64())
}

// layers reads the simulated-time per-layer counters from the
// packages' exported statistics after a run.
func layers(k *kernel.Kernel, j *jobs) map[string]float64 {
	eng := k.Engine()
	now := eng.Now()
	q := eng.QueueStats()
	ss := k.Scheduler().Stat
	ms := &k.Memory().Stat
	fst := k.FS().Stat
	m := map[string]float64{
		"sim.events":               float64(eng.Dispatched()),
		"sim.queue_collision_rate": ratio(float64(q.Collisions), float64(q.Pushes)),

		"sched.dispatches":  float64(ss.Dispatches),
		"sched.preemptions": float64(ss.Preemptions),
		"sched.loans":       float64(ss.Loans),
		"sched.revocations": float64(ss.Revocations),
		"sched.util":        k.Scheduler().Utilization(),

		"mem.allocations":    float64(ms.Allocations),
		"mem.evictions":      float64(ms.Evictions),
		"mem.dirty_writes":   float64(ms.DirtyWrites),
		"mem.denials":        float64(ms.Denials),
		"mem.wait_queue_len": ms.WaitQueueLen.Average(now),

		"fs.hit_ratio":   ratio(float64(fst.Hits), float64(fst.Hits+fst.Misses)),
		"fs.read_reqs":   float64(fst.ReadReqs),
		"fs.write_reqs":  float64(fst.WriteReqs),
		"fs.retries":     float64(fst.Retries),
		"fault.injected": 0,
	}

	// Requests, failures and the wait and service means cover every
	// disk; utilization and mean queue length are the busiest disk's.
	var req, fail int64
	var wait, service float64
	for i := 0; i < k.NumDisks(); i++ {
		d := k.Disk(i)
		t := &d.Total
		req += t.Requests
		fail += t.Failures
		wait += t.Wait.Sum()
		service += t.Service.Sum()
		m["disk.util"] = max(m["disk.util"], d.Utilization())
		m["disk.queue_len"] = max(m["disk.queue_len"], t.QueueLen.Average(now))
	}
	m["disk.requests"] = float64(req)
	m["disk.failures"] = float64(fail)
	m["disk.wait_ms"] = 1e3 * ratio(wait, float64(req))
	m["disk.service_ms"] = 1e3 * ratio(service, float64(req))

	var acq int64
	var lockWait sim.Time
	for _, l := range k.Locks().Locks() {
		acq += l.Acquisitions
		lockWait += l.WaitTotal
	}
	for _, g := range k.Locks().Gates() {
		acq += g.Acquisitions
		lockWait += g.WaitTotal
	}
	m["lock.acquisitions"] = float64(acq)
	m["lock.wait_ms"] = millis(lockWait)

	var requests, censored int64
	if lr := k.Latency(); lr != nil {
		for _, t := range lr.Trackers() {
			requests += t.Count()
			censored += t.Censored()
		}
	}
	m["latency.requests"] = float64(requests)
	m["latency.censored"] = float64(censored)

	var cs control.Stats
	if c := k.Controller(); c != nil {
		cs = c.Stat
	}
	m["control.ticks"] = float64(cs.Ticks)
	m["control.retunes"] = float64(cs.Retunes)
	m["control.shed"] = float64(cs.Shed)
	m["control.trips"] = float64(cs.Trips)

	// The auditor is nil when a variant disables it, and its methods are
	// not nil-safe.
	m["invariant.checks"], m["invariant.violations"] = 0, 0
	if a := k.Auditor(); a != nil {
		m["invariant.checks"] = float64(a.Checks())
		m["invariant.violations"] = float64(len(a.Violations()))
	}

	var theft sim.Time
	for _, t := range k.Profile().Interference() {
		if t.Victim != t.Culprit {
			theft += t.Stolen
		}
	}
	m["profile.theft_ms"] = millis(theft)

	if in := k.Injector(); in != nil {
		m["fault.injected"] = float64(in.Stat.Injected)
	}

	m["result.victim_resp_s"] = 0
	if j.victim != nil {
		m["result.victim_resp_s"] = j.victim.ResponseTime().Seconds()
	}
	var worst sim.Time
	held := 0
	for _, t := range j.tenants {
		tr := t.job.Tracker()
		worst = max(worst, sim.Time(tr.Total().Quantile(0.99)))
		if tr.Attainment() >= t.slo.Target*100 {
			held++
		}
	}
	m["result.tenant_p99_ms"] = millis(worst)
	m["result.slo_held"] = float64(held)
	return m
}

func millis(t sim.Time) float64 { return t.Seconds() * 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
