package disk

import (
	"perfiso/internal/bwmeter"
	"perfiso/internal/core"
	"perfiso/internal/profile"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
)

// SPUStats aggregates per-SPU statistics for one disk.
type SPUStats struct {
	Requests int64
	Sectors  int64
	Wait     stats.Sample // seconds in queue per request
	Service  stats.Sample // seconds in service per request
	Seek     stats.Sample // seconds of seek per request
	Pos      stats.Sample // seconds of positioning (seek+rotation)
}

// Stats aggregates whole-disk statistics.
type Stats struct {
	Requests int64
	Sectors  int64
	Merges   int64 // requests coalesced into a queued neighbour
	Failures int64 // transfers failed by an injected fault
	Wait     stats.Sample
	Service  stats.Sample
	Seek     stats.Sample
	Pos      stats.Sample       // positioning latency (seek+rotation)
	Busy     stats.TimeWeighted // 1 while servicing, 0 while idle
	QueueLen stats.TimeWeighted
}

// MaxMergeSectors caps the size of a coalesced request (128 KB).
const MaxMergeSectors = 256

// Disk is one simulated drive: a mechanical model, a request queue, a
// scheduling policy, and per-SPU bandwidth accounting.
type Disk struct {
	eng    *sim.Engine
	params Params
	sched  Scheduler

	queue   []*Request
	busy    bool
	headCyl int
	lastEnd int64 // sector after the previous transfer (track-buffer hit)
	// lastXferFinish is when the previous transfer left the media. The
	// track-buffer sequential hit is only honoured within one rotation of
	// this instant: the read-ahead data in the buffer is overwritten as
	// the platter keeps spinning, so after an idle gap the head must wait
	// for the sector like any other request.
	lastXferFinish sim.Time

	// Fault injection (internal/fault): slow inflates every service time
	// by the given factor; failProb fails transfers with the given
	// probability, drawn from failRNG so runs stay deterministic.
	slow     float64
	failProb float64
	failRNG  *sim.RNG

	// Merge enables request coalescing: a submitted request adjacent to
	// a queued request of the same kind and SPU extends it instead of
	// queueing separately (up to MaxMergeSectors). Off by default — the
	// paper's request counts assume the unmerged IRIX 5.3 driver.
	Merge bool

	// inService is the request being transferred; completeFn, bound
	// once in New, completes it, so starting a transfer schedules its
	// completion without allocating.
	inService  *Request
	completeFn func()

	// clean marks a disk whose Audit passed in an incremental sweep
	// (AuditChanged) and that has not mutated since. Submit, startNext
	// and complete clear it; they are the only writers of audited state.
	clean bool

	usage *bwmeter.Table // decayed sectors transferred per SPU (§3.3)
	// active and blamed are PIso.pick's and the profiler blame pass's
	// per-SPU scratch, reused so neither allocates per request.
	active []spuUsage
	blamed []spuCount

	// Profile, when non-nil, receives request span trees, the
	// queue-theft blame pass, and the completion windows that let
	// waiters split their stalls into queue/service/backoff time. Nil
	// costs nothing.
	Profile *profile.Profiler

	Total  Stats
	PerSPU map[core.SPUID]*SPUStats
}

// New creates a disk on the given engine with the given mechanical
// parameters and scheduling policy. halfLife configures the bandwidth
// usage decay (0 means the paper's 500 ms).
func New(eng *sim.Engine, p Params, sched Scheduler, halfLife sim.Time) *Disk {
	d := &Disk{
		eng:    eng,
		params: p,
		sched:  sched,
		usage:  bwmeter.NewTable(halfLife),
		PerSPU: make(map[core.SPUID]*SPUStats),
	}
	d.completeFn = func() {
		r := d.inService
		d.inService = nil
		d.complete(r)
	}
	return d
}

// Params returns the disk's mechanical parameters.
func (d *Disk) Params() Params { return d.params }

// Scheduler returns the active scheduling policy.
func (d *Disk) Scheduler() Scheduler { return d.sched }

// SetScheduler replaces the scheduling policy (before or between runs).
func (d *Disk) SetScheduler(s Scheduler) { d.sched = s }

// SetShare sets an SPU's bandwidth share weight on this disk.
func (d *Disk) SetShare(id core.SPUID, w float64) { d.usage.SetShare(id, w) }

// Usage returns an SPU's decayed sector count at the current time,
// relative to its share. Exposed for tests and for the ablation harness.
func (d *Disk) Usage(id core.SPUID) float64 {
	return d.usage.Relative(d.eng.Now(), id)
}

// SetSlow degrades (or restores) the drive: every subsequent service
// time is multiplied by factor. factor <= 1 restores nominal speed.
func (d *Disk) SetSlow(factor float64) {
	if factor < 1 {
		factor = 1
	}
	d.slow = factor
}

// Slow returns the current service-time inflation factor (1 = nominal).
func (d *Disk) Slow() float64 {
	if d.slow < 1 {
		return 1
	}
	return d.slow
}

// SetFault makes each subsequent transfer fail with probability prob,
// drawing from rng (fork a dedicated stream so the decisions do not
// perturb other consumers). prob <= 0 clears the fault. Failed requests
// consume service time and bandwidth but complete with Failed set.
func (d *Disk) SetFault(prob float64, rng *sim.RNG) {
	if prob <= 0 {
		d.failProb, d.failRNG = 0, nil
		return
	}
	d.failProb, d.failRNG = prob, rng
}

// FailProb returns the current transient-failure probability.
func (d *Disk) FailProb() float64 { return d.failProb }

// QueueLen returns the number of requests waiting (not in service).
func (d *Disk) QueueLen() int { return len(d.queue) }

// QueuedFor returns the number of waiting requests charged to the SPU —
// the per-SPU queue depth the observability layer samples.
func (d *Disk) QueuedFor(id core.SPUID) int {
	n := 0
	for _, r := range d.queue {
		if r.SPU == id {
			n++
		}
	}
	return n
}

// SectorsFor returns the cumulative sectors transferred for the SPU.
func (d *Disk) SectorsFor(id core.SPUID) int64 {
	if s, ok := d.PerSPU[id]; ok {
		return s.Sectors
	}
	return 0
}

// Busy reports whether a request is currently in service.
func (d *Disk) Busy() bool { return d.busy }

func (d *Disk) spuStats(id core.SPUID) *SPUStats {
	s, ok := d.PerSPU[id]
	if !ok {
		s = &SPUStats{}
		d.PerSPU[id] = s
	}
	return s
}

// Submit enqueues a request. Invalid requests panic: they indicate a bug
// in the file system layer, not a condition a real driver would see.
func (d *Disk) Submit(r *Request) {
	if err := r.validate(d.params.TotalSectors()); err != nil {
		panic(err)
	}
	d.clean = false
	r.cyl = d.params.CylinderOf(r.Sector)
	r.Submitted = d.eng.Now()
	r.Failed = false
	if d.Merge && d.tryMerge(r) {
		return
	}
	d.queue = append(d.queue, r)
	d.Total.QueueLen.Set(d.eng.Now(), float64(len(d.queue)))
	if !d.busy {
		d.startNext()
	}
}

// tryMerge coalesces r into an adjacent queued request of the same kind
// and SPU. Requests with charge-back lists are never merged (their
// accounting is already aggregated). Reports whether r was absorbed.
func (d *Disk) tryMerge(r *Request) bool {
	if len(r.Charges) > 0 {
		return false
	}
	for _, q := range d.queue {
		if q.Kind != r.Kind || q.SPU != r.SPU || len(q.Charges) > 0 {
			continue
		}
		if q.Count+r.Count > MaxMergeSectors {
			continue
		}
		var merged bool
		switch {
		case q.Sector+int64(q.Count) == r.Sector: // r extends q forward
			q.Count += r.Count
			merged = true
		case r.Sector+int64(r.Count) == q.Sector: // r prepends to q
			q.Sector, q.cyl = r.Sector, r.cyl
			q.Count += r.Count
			merged = true
		}
		if !merged {
			continue
		}
		d.Total.Merges++
		done := r.Done
		prev := q.Done
		q.Done = func(qq *Request) {
			if prev != nil {
				prev(qq)
			}
			// The absorbed request completes with its host. It was a
			// real request with a real queueing delay and completion
			// time, so it counts in the latency statistics like any
			// other (its sectors are already counted via the host's
			// grown Count). Failed hosts fail their passengers too.
			r.Started = qq.Started
			r.Finished = qq.Finished
			r.SeekTime = qq.SeekTime
			r.RotTime = qq.RotTime
			r.Failed = qq.Failed
			if !r.Failed {
				d.clean = false
				d.Total.Requests++
				d.Total.Wait.AddTime(r.Wait())
				d.Total.Service.AddTime(r.Service())
				s := d.spuStats(r.SPU)
				s.Requests++
				s.Wait.AddTime(r.Wait())
				s.Service.AddTime(r.Service())
			}
			if done != nil {
				done(r)
			}
		}
		return true
	}
	return false
}

// startNext pulls the next request per the scheduling policy and begins
// service. Caller guarantees the disk is idle.
func (d *Disk) startNext() {
	d.clean = false
	if len(d.queue) == 0 {
		d.busy = false
		d.Total.Busy.Set(d.eng.Now(), 0)
		return
	}
	idx := d.sched.pick(d)
	r := d.queue[idx]
	d.queue = append(d.queue[:idx], d.queue[idx+1:]...)
	now := d.eng.Now()
	d.Total.QueueLen.Set(now, float64(len(d.queue)))
	d.busy = true
	d.Total.Busy.Set(now, 1)

	r.Started = now
	seek := d.params.SeekTime(d.headCyl, r.cyl)
	r.SeekTime = seek
	settled := now + d.params.Overhead + seek
	rot := d.params.RotationalDelay(settled, r.Sector)
	if r.Sector == d.lastEnd && now-d.lastXferFinish <= d.params.RotationTime() {
		// Exact sequential continuation: the drive's track buffer and
		// read-ahead absorb the command-overhead gap, so streaming IO
		// does not pay a near-full rotation per request. The buffered
		// data only survives about one revolution past the previous
		// transfer — after a longer idle gap the read-ahead has been
		// overwritten and the request pays normal rotational delay.
		rot = 0
	}
	r.RotTime = rot
	xfer := d.params.TransferTime(r.Sector, r.Count)
	total := d.params.Overhead + seek + rot + xfer
	if d.slow > 1 {
		// Degraded drive (fault injection): everything — positioning,
		// media rate, controller — runs slower by the same factor.
		total = sim.Time(float64(total) * d.slow)
	}
	if d.failProb > 0 && d.failRNG != nil && d.failRNG.Float64() < d.failProb {
		r.Failed = true
	}

	if d.Profile != nil {
		d.blame(r, total)
	}

	d.inService = r
	d.eng.After(total, "disk.complete", d.completeFn)
	// The head ends up over the last cylinder touched by the transfer.
	d.headCyl = d.params.CylinderOf(r.Sector + int64(r.Count) - 1)
	d.lastEnd = r.Sector + int64(r.Count)
	d.lastXferFinish = now + total
}

// blame is the profiler's blame pass: every queued request of another
// SPU now waits the whole service time of r because the scheduler chose
// r first. This is the only source of disk theft in the interference
// matrix (a waiter's own queue-time split must not double it). Each
// victim SPU is charged once, count × total — exactly the per-request
// sum, since sim.Time is an integer.
func (d *Disk) blame(r *Request, total sim.Time) {
	blamed := d.blamed[:0]
	for _, q := range d.queue {
		if q.SPU == r.SPU {
			continue
		}
		q.StolenBy = r.SPU
		i := 0
		for i < len(blamed) && blamed[i].id != q.SPU {
			i++
		}
		if i == len(blamed) {
			blamed = append(blamed, spuCount{id: q.SPU})
		}
		blamed[i].n++
	}
	for _, b := range blamed {
		d.Profile.AddTheft(b.id, r.SPU, profile.Disk, sim.Time(b.n)*total)
	}
	d.blamed = blamed
}

// spuCount is one victim SPU's queued-request count in a blame pass.
type spuCount struct {
	id core.SPUID
	n  int
}

// complete finishes a request: accounting, statistics, callback, and
// kicking off the next request.
func (d *Disk) complete(r *Request) {
	d.clean = false
	now := d.eng.Now()
	r.Finished = now

	// Bandwidth accounting (§3.3). Shared requests are charged back to
	// the owning user SPUs once the transfer is done.
	if len(r.Charges) > 0 {
		for _, c := range r.Charges {
			d.usage.Charge(now, c.SPU, c.Sectors)
		}
	} else {
		d.usage.Charge(now, r.SPU, r.Count)
	}

	if r.Failed {
		// A failed transfer occupied the arm and consumed the SPU's
		// bandwidth share (charged above) but moved no usable data; it
		// is counted as a failure, not as a completed request, so the
		// latency percentiles describe successful transfers only. The
		// submitter sees Failed via Done and retries.
		d.Total.Failures++
	} else {
		d.Total.Requests++
		d.Total.Sectors += int64(r.Count)
		d.Total.Wait.AddTime(r.Wait())
		d.Total.Service.AddTime(r.Service())
		d.Total.Seek.AddTime(r.SeekTime)
		d.Total.Pos.AddTime(r.Positioning())
		s := d.spuStats(r.SPU)
		s.Requests++
		s.Sectors += int64(r.Count)
		s.Wait.AddTime(r.Wait())
		s.Service.AddTime(r.Service())
		s.Seek.AddTime(r.SeekTime)
		s.Pos.AddTime(r.Positioning())
	}

	done := r.Done
	var flowID int64
	if d.Profile != nil && !r.Failed {
		flowID = d.Profile.DiskSpans(r.SPU, r.Kind.String(), r.Submitted, r.Started, r.Finished, r.stolenBy())
	}
	d.startNext()
	if done == nil {
		return
	}
	if d.Profile != nil && !r.Failed {
		// Everything done(r) resumes synchronously waited on exactly
		// this transfer: publish its timing as the completion window so
		// closing DiskWait segments can split into queue/service/backoff
		// and link back to the service span as a flow.
		d.Profile.BeginDiskWindow(r.Started, r.Finished, r.Backoff, r.stolenBy(), flowID)
		done(r)
		d.Profile.EndDiskWindow()
		return
	}
	done(r)
}

// stolenBy returns the SPU to blame for the request's queueing delay:
// the last SPU served ahead of it, or its own SPU if never displaced.
func (r *Request) stolenBy() core.SPUID {
	if r.StolenBy == core.KernelID {
		return r.SPU
	}
	return r.StolenBy
}

// Utilization returns the fraction of time the disk has been busy.
func (d *Disk) Utilization() float64 {
	return d.Total.Busy.Average(d.eng.Now())
}
