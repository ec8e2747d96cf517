package experiment

import (
	"fmt"

	"perfiso/internal/core"
	"perfiso/internal/kernel"
	"perfiso/internal/netbw"
	"perfiso/internal/scenario"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
	"perfiso/internal/workload"
)

// BWThresholdResult is the §3.3 trade-off sweep: "Smaller values imply
// better isolation, with a choice of zero resulting in round-robin
// scheduling. Larger values imply smaller seek times, and a very large
// value results in the normal disk-head-position scheduling."
type BWThresholdResult struct {
	Meter
	Thresholds []float64 // sectors
	Small      stats.Series
	Big        stats.Series
	Latency    stats.Series // positioning ms
}

// RunAblationBWThreshold sweeps the PIso BW-difference threshold over
// the Table 4 workload.
func RunAblationBWThreshold(thresholds []float64) BWThresholdResult {
	if len(thresholds) == 0 {
		thresholds = []float64{1, 16, 64, 256, 1024, 8192, 1 << 30}
	}
	res := BWThresholdResult{Thresholds: thresholds}
	res.Small.Name = "small copy response (s)"
	res.Big.Name = "big copy response (s)"
	res.Latency.Name = "avg positioning latency (ms)"
	for _, th := range thresholds {
		r := scenario.Execute(bigSmallCopy(kernel.Options{DiskSched: "PIso", BWThreshold: th, Profiled: true}))
		res.observe(r.Kernel, fmt.Sprintf("bw=%g", th))
		res.Small.Add(th, r.Procs[0].ResponseTime().Seconds())
		res.Big.Add(th, r.Procs[1].ResponseTime().Seconds())
		res.Latency.Add(th, r.Kernel.Disk(0).Total.Pos.Mean()*1000)
	}
	return res
}

// Table renders the threshold sweep.
func (r BWThresholdResult) Table() *stats.Table {
	t := stats.NewTable(
		"Ablation: BW-difference threshold trade-off (§3.3, Table 4 workload)",
		"Threshold (sectors)", "Small resp (s)", "Big resp (s)", "Avg latency (ms)")
	for i, th := range r.Thresholds {
		t.Addf(fmt.Sprintf("%.0f", th),
			r.Small.Points[i].Y, r.Big.Points[i].Y, r.Latency.Points[i].Y)
	}
	return t
}

// ReserveResult is the §3.2 Reserve Threshold sweep on the memory
// isolation workload: the reserve hides revocation cost for the lender
// (SPU1) at the price of lending less to the borrower (SPU2).
type ReserveResult struct {
	Meter
	Fractions []float64
	SPU1      stats.Series // lender response (s), unbalanced PIso
	SPU2      stats.Series // borrower response (s), unbalanced PIso
}

// RunAblationReserve sweeps the Reserve Threshold fraction.
func RunAblationReserve(fractions []float64) ReserveResult {
	if len(fractions) == 0 {
		fractions = []float64{0.02, 0.04, 0.08, 0.16, 0.25}
	}
	res := ReserveResult{Fractions: fractions}
	res.SPU1.Name = "SPU1 (lender) response (s)"
	res.SPU2.Name = "SPU2 (borrower) response (s)"
	for _, f := range fractions {
		r := scenario.Execute(scenario.Fig7(core.PIso, kernel.Options{Reserve: f, Profiled: true}, true))
		res.observe(r.Kernel, fmt.Sprintf("reserve=%g", f))
		res.SPU1.Add(f, r.Procs[0].ResponseTime().Seconds())
		res.SPU2.Add(f, (r.Procs[1].ResponseTime()+r.Procs[2].ResponseTime()).Seconds()/2)
	}
	return res
}

// Table renders the reserve sweep.
func (r ReserveResult) Table() *stats.Table {
	t := stats.NewTable(
		"Ablation: memory Reserve Threshold (§3.2, memory-isolation workload, PIso unbalanced)",
		"Reserve", "SPU1 resp (s)", "SPU2 resp (s)")
	for i, f := range r.Fractions {
		t.Addf(fmt.Sprintf("%.0f%%", f*100), r.SPU1.Points[i].Y, r.SPU2.Points[i].Y)
	}
	return t
}

// InodeLockResult is the §3.4 semaphore-granularity comparison: the
// paper changed the inode lock from a mutex to readers-writer because
// root-inode contention "has the potential to completely break
// performance isolation", and saw up to 20-30% better response time.
type InodeLockResult struct {
	Meter
	MutexResp sim.Time // mean pmake job response with the mutex lock
	RWResp    sim.Time // with the readers-writer lock
	MutexWait sim.Time // mean root-inode queueing delay, mutex
	RWWait    sim.Time // mean root-inode queueing delay, rw
}

// RunAblationInodeLock runs the Pmake8 balanced workload (heavy
// concurrent lookups) under both lock flavours. The lookup hold time is
// raised to make the serialization visible at this machine scale, as it
// was on the paper's four-processor runs.
func RunAblationInodeLock() InodeLockResult {
	var res InodeLockResult
	run := func(mutex bool) (sim.Time, sim.Time) {
		params := workload.DefaultPmake()
		params.FilesPerCompile = 16 // lookup-heavy
		params.ComputePerFile = 100 * sim.Millisecond
		r := scenario.Boot(eachOfEight(kernel.Options{InodeMutex: mutex, Profiled: true},
			scenario.Job{Name: "pmake", Pmake: &params}))
		// 16 concurrent compiles each issuing a lookup every ~120 ms
		// against a 30 ms hold saturates a mutual-exclusion lock while a
		// readers-writer lock stays uncontended.
		r.Kernel.FS().LookupHold = 30 * sim.Millisecond
		r.Start()
		end := r.Finish()
		res.observe(r.Kernel, fmt.Sprintf("mutex=%t", mutex))
		return end, r.Kernel.FS().RootInode.MeanWait()
	}
	res.MutexResp, res.MutexWait = run(true)
	res.RWResp, res.RWWait = run(false)
	return res
}

// Table renders the inode-lock comparison.
func (r InodeLockResult) Table() *stats.Table {
	t := stats.NewTable(
		"Ablation: inode-lock granularity (§3.4, Pmake8 balanced)",
		"Lock", "Makespan (s)", "Mean inode wait (us)")
	t.Addf("mutex", r.MutexResp.Seconds(), r.MutexWait.Microseconds())
	t.Addf("rw", r.RWResp.Seconds(), r.RWWait.Microseconds())
	return t
}

// RevocationResult compares tick-based (<=10 ms) and IPI (immediate)
// CPU revocation on the CPU-isolation workload (§3.1: an IPI "might be
// needed to provide response time performance isolation guarantees").
type RevocationResult struct {
	Meter
	TickOcean sim.Time
	IPIOcean  sim.Time
	TickEda   sim.Time // mean Flashlite+VCS response
	IPIEda    sim.Time
}

// RunAblationRevocation runs the Fig 5 workload under both revocation
// mechanisms (PIso scheme).
func RunAblationRevocation() RevocationResult {
	var res RevocationResult
	run := func(ipi bool) (ocean, eda sim.Time) {
		r := scenario.Execute(scenario.Fig5(core.PIso, kernel.Options{IPIRevoke: ipi, Profiled: true}, "fl"))
		res.observe(r.Kernel, fmt.Sprintf("ipi=%t", ipi))
		return r.Procs[0].ResponseTime(), r.Mean(onSPU(1))
	}
	res.TickOcean, res.TickEda = run(false)
	res.IPIOcean, res.IPIEda = run(true)
	return res
}

// Table renders the revocation comparison.
func (r RevocationResult) Table() *stats.Table {
	t := stats.NewTable(
		"Ablation: CPU revocation latency (§3.1, CPU-isolation workload, PIso)",
		"Mechanism", "Ocean resp (s)", "Flashlite+VCS mean resp (s)")
	t.Addf("tick (<=10ms)", r.TickOcean.Seconds(), r.TickEda.Seconds())
	t.Addf("IPI (immediate)", r.IPIOcean.Seconds(), r.IPIEda.Seconds())
	return t
}

// NetworkResult is the §5 network-bandwidth extension demonstration:
// the light sender's completion under FCFS vs the fairness policy.
type NetworkResult struct {
	Meter
	FCFSLight sim.Time
	FairLight sim.Time
	FCFSHeavy sim.Time
	FairHeavy sim.Time
}

// RunAblationNetwork floods a 10 MB/s link from one SPU while another
// sends a short burst, under both link policies.
func RunAblationNetwork() NetworkResult {
	var res NetworkResult
	run := func(policy netbw.Policy) (light, heavy sim.Time) {
		eng := sim.NewEngine()
		l := netbw.NewLink(eng, 10e6, policy, 16*1024, 0)
		l.SetShare(core.FirstUserID, 1)
		l.SetShare(core.FirstUserID+1, 1)
		for i := 0; i < 300; i++ {
			l.Send(&netbw.Packet{Bytes: 32 * 1024, SPU: core.FirstUserID,
				Done: func(p *netbw.Packet) { heavy = p.Finished }})
		}
		for i := 0; i < 20; i++ {
			l.Send(&netbw.Packet{Bytes: 2 * 1024, SPU: core.FirstUserID + 1,
				Done: func(p *netbw.Packet) { light = p.Finished }})
		}
		eng.Run()
		res.countEngine(eng)
		return light, heavy
	}
	res.FCFSLight, res.FCFSHeavy = run(netbw.FCFS)
	res.FairLight, res.FairHeavy = run(netbw.Fair)
	return res
}

// Table renders the network comparison.
func (r NetworkResult) Table() *stats.Table {
	t := stats.NewTable(
		"Ablation: network bandwidth isolation (§5 extension, 10 MB/s link)",
		"Policy", "Light sender done (s)", "Heavy sender done (s)")
	t.Addf("FCFS", r.FCFSLight.Seconds(), r.FCFSHeavy.Seconds())
	t.Addf("Fair", r.FairLight.Seconds(), r.FairHeavy.Seconds())
	return t
}
