package experiment

import (
	"fmt"

	"perfiso/internal/core"
	"perfiso/internal/kernel"
	"perfiso/internal/machine"
	"perfiso/internal/profile"
	"perfiso/internal/scenario"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
	"perfiso/internal/workload"
)

// LockLeakRow is one lock layout's outcome in the lock-sharing erosion
// experiment.
type LockLeakRow struct {
	Config string
	// Shards is the inode-lock shard count (1 = one shared mutex).
	Shards int
	// Makespan is the finish time of the slowest job.
	Makespan sim.Time
	// ContendedWait is the mean stall of the lookups that actually
	// queued, aggregated over the inode shards — the undiluted §3.4
	// number (MeanWait averages in every free grant and understates the
	// stall by orders of magnitude at low contention).
	ContendedWait sim.Time
	// MeanQueue is the busiest shard's time-weighted mean queue length.
	MeanQueue float64
	// Theft is the total cross-SPU time charged to the interference
	// matrix's lock column: lookup stalls plus contended gate windows
	// blamed on a foreign SPU.
	Theft sim.Time
}

// LockLeakResult is the lock-sharing erosion experiment: performance
// isolation leaks through shared kernel locks even when CPU, memory,
// and disk are all perfectly partitioned.
type LockLeakResult struct {
	Meter
	Rows []LockLeakRow
}

// RunLockLeak runs an eight-SPU PIso machine whose only shared resource
// is the kernel's lock layout. Every SPU gets one CPU and a
// metadata-bound process (pathname lookups and short compute bursts —
// no file IO, so the page-insert stripes and disks stay cold). Three
// layouts bracket the paper's §3.4 trajectory:
//
//   - shared: one inode mutex plus coarse run-queue/frame-pool gates —
//     the SMP-style kernel. Every SPU's lookups serialize behind the
//     others' and the interference matrix shows who paid for whom.
//   - sharded-4: four inode shards, private gates. Pairs of SPUs still
//     collide; the leak shrinks but is nonzero.
//   - private: eight shards — one per SPU — and private gates. No lock
//     is touched by two SPUs, so cross-SPU lock theft is exactly zero
//     by construction, not merely small.
func RunLockLeak() LockLeakResult {
	var res LockLeakResult
	run := func(config string, shards int) {
		coarse := shards <= 1
		lookups := workload.DefaultLookupLoop()
		r := scenario.Boot(eachOfEight(kernel.Options{
			InodeMutex:        true,
			InodeShards:       shards,
			GateHold:          2 * sim.Microsecond,
			CoarseKernelLocks: coarse,
			Profiled:          true,
		}, scenario.Job{Name: "md", Lookup: &lookups}))
		k := r.Kernel
		k.FS().LookupHold = 30 * sim.Millisecond
		r.Start()
		end := r.Finish()
		res.observe(k, config)

		row := LockLeakRow{Config: config, Shards: shards, Makespan: end}
		var contended, waitSum int64
		for _, l := range k.FS().InodeLocks() {
			contended += l.Contended
			waitSum += int64(l.ContendedWait)
			if q := l.MeanQueueLen(); q > row.MeanQueue {
				row.MeanQueue = q
			}
		}
		if contended > 0 {
			row.ContendedWait = sim.Time(waitSum / contended)
		}
		for _, t := range k.Profile().Interference() {
			if t.Resource == profile.Lock {
				row.Theft += t.Stolen
			}
		}
		res.Rows = append(res.Rows, row)
	}
	run("shared", 1)
	run("sharded-4", 4)
	run("private", 8)
	return res
}

// eachOfEight is a PIso plan on the Pmake8 machine with SPUs spu1..spu8,
// SPU i running one copy of job named job.Name+i.
func eachOfEight(opts kernel.Options, job scenario.Job) scenario.Plan {
	p := scenario.Plan{Machine: machine.Pmake8(), Scheme: core.PIso, Options: opts}
	for i := 0; i < 8; i++ {
		p.SPUs = append(p.SPUs, scenario.SPU{Name: fmt.Sprintf("spu%d", i+1)})
		j := job
		j.SPU, j.Name = i, fmt.Sprintf("%s%d", job.Name, i)
		p.Jobs = append(p.Jobs, j)
	}
	return p
}

// Table renders the erosion ladder.
func (r LockLeakResult) Table() *stats.Table {
	t := stats.NewTable(
		"Lock-sharing erosion: PIso leaks through shared kernel locks (§3.4 extension)",
		"Lock layout", "Makespan (s)", "Contended wait (ms)", "Peak mean qlen", "Lock theft (ms)")
	for _, row := range r.Rows {
		t.Addf(fmt.Sprintf("%s (%d)", row.Config, row.Shards),
			row.Makespan.Seconds(),
			row.ContendedWait.Milliseconds(),
			row.MeanQueue,
			row.Theft.Milliseconds())
	}
	return t
}
