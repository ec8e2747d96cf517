package disk

import (
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/sim"
)

const (
	spuA = core.FirstUserID
	spuB = core.FirstUserID + 1
)

func newTestDisk(sched Scheduler) (*sim.Engine, *Disk) {
	eng := sim.NewEngine()
	d := New(eng, HP97560(), sched, 0)
	return eng, d
}

func req(spu core.SPUID, sector int64, count int, done func(*Request)) *Request {
	return &Request{Kind: Read, Sector: sector, Count: count, SPU: spu, Done: done}
}

func TestSingleRequestServiceTime(t *testing.T) {
	eng, d := newTestDisk(NewPos())
	var finished *Request
	d.Submit(req(spuA, 1000, 16, func(r *Request) { finished = r }))
	eng.Run()
	if finished == nil {
		t.Fatal("request never completed")
	}
	if finished.Service() <= 0 {
		t.Fatal("service time not positive")
	}
	p := d.Params()
	// Service must include at least overhead + seek + transfer.
	min := p.Overhead + p.SeekTime(0, p.CylinderOf(1000)) + p.TransferTime(1000, 16)
	if finished.Service() < min {
		t.Fatalf("service %v < floor %v", finished.Service(), min)
	}
	if finished.Wait() != 0 {
		t.Fatalf("lone request waited %v", finished.Wait())
	}
	if d.Total.Requests != 1 || d.Total.Sectors != 16 {
		t.Fatalf("stats: %d reqs, %d sectors", d.Total.Requests, d.Total.Sectors)
	}
}

func TestRequestsServeSequentially(t *testing.T) {
	eng, d := newTestDisk(NewPos())
	var order []int64
	for _, s := range []int64{100, 200, 300} {
		d.Submit(req(spuA, s, 8, func(r *Request) { order = append(order, r.Sector) }))
	}
	if !d.Busy() {
		t.Fatal("disk should be busy after submit")
	}
	if d.QueueLen() != 2 {
		t.Fatalf("queue length %d, want 2 (one in service)", d.QueueLen())
	}
	eng.Run()
	if len(order) != 3 {
		t.Fatalf("completed %d requests", len(order))
	}
	if d.Busy() || d.QueueLen() != 0 {
		t.Fatal("disk should be idle after drain")
	}
}

func TestSubmitInvalidRequestPanics(t *testing.T) {
	_, d := newTestDisk(NewPos())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Submit(req(spuA, -1, 8, nil))
}

func TestPosServesInCSCANOrder(t *testing.T) {
	eng, d := newTestDisk(NewPos())
	spc := d.Params().SectorsPerCylinder()
	// Hold the head busy with a request at cylinder 0, then queue
	// requests at cylinders 500, 100, 900. C-SCAN from low cylinders
	// must serve 100, 500, 900 regardless of submission order.
	var order []int64
	record := func(r *Request) { order = append(order, r.Sector/spc) }
	d.Submit(req(spuA, 0, 8, record))
	d.Submit(req(spuA, 500*spc, 8, record))
	d.Submit(req(spuA, 100*spc, 8, record))
	d.Submit(req(spuA, 900*spc, 8, record))
	eng.Run()
	want := []int64{0, 100, 500, 900}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("service order %v, want %v", order, want)
		}
	}
}

func TestPosCSCANWrapsAround(t *testing.T) {
	eng, d := newTestDisk(NewPos())
	spc := d.Params().SectorsPerCylinder()
	var order []int64
	record := func(r *Request) { order = append(order, r.Sector/spc) }
	// Park the head at cylinder 800 via a first request.
	d.Submit(req(spuA, 800*spc, 8, record))
	d.Submit(req(spuA, 900*spc, 8, record))
	d.Submit(req(spuA, 100*spc, 8, record)) // behind the head: wraps
	eng.Run()
	want := []int64{800, 900, 100}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("service order %v, want %v", order, want)
		}
	}
}

// The §4.5 lockout scenario: a contiguous stream from one SPU keeps
// winning C-SCAN, starving the other SPU's scattered requests.
func TestPosLockoutVsPIsoFairness(t *testing.T) {
	run := func(sched Scheduler) (scatterDone, streamDone sim.Time) {
		eng, d := newTestDisk(sched)
		d.SetShare(spuA, 1)
		d.SetShare(spuB, 1)
		spc := d.Params().SectorsPerCylinder()

		// SPU A: a long contiguous stream starting at cylinder 10,
		// submitted as an initial burst and then re-armed back-to-back
		// (like read-ahead keeping the queue full).
		const streamReqs = 120
		streamLeft := streamReqs
		sector := 10 * spc
		var submitStream func()
		submitStream = func() {
			if streamLeft == 0 {
				return
			}
			streamLeft--
			r := req(spuA, sector, 32, func(*Request) {
				if streamLeft == 0 && streamDone == 0 {
					streamDone = eng.Now()
				}
				submitStream()
			})
			sector += 32
			d.Submit(r)
		}
		// Keep 8 stream requests outstanding, mimicking kernel read-ahead.
		for i := 0; i < 8; i++ {
			submitStream()
		}

		// SPU B: 20 scattered requests, all queued at t=0.
		const scatterReqs = 20
		left := scatterReqs
		for i := 0; i < scatterReqs; i++ {
			cyl := int64(200 + 37*i)
			d.Submit(req(spuB, cyl*spc, 8, func(*Request) {
				left--
				if left == 0 {
					scatterDone = eng.Now()
				}
			}))
		}
		eng.Run()
		return scatterDone, streamDone
	}

	posScatter, _ := run(NewPos())
	pisoScatter, _ := run(NewPIso(DefaultBWThreshold))
	isoScatter, _ := run(NewIso())

	if pisoScatter >= posScatter {
		t.Fatalf("PIso did not improve scattered SPU: Pos %v vs PIso %v", posScatter, pisoScatter)
	}
	if isoScatter >= posScatter {
		t.Fatalf("Iso did not improve scattered SPU: Pos %v vs Iso %v", posScatter, isoScatter)
	}
}

func TestIsoAlternatesBetweenSPUs(t *testing.T) {
	eng, d := newTestDisk(NewIso())
	var order []core.SPUID
	record := func(r *Request) { order = append(order, r.SPU) }
	// Queue 4 requests from A then 4 from B while the disk is busy.
	d.Submit(req(spuA, 0, 8, record)) // in service immediately
	for i := 1; i <= 3; i++ {
		d.Submit(req(spuA, int64(i)*1000, 8, record))
	}
	for i := 0; i < 4; i++ {
		d.Submit(req(spuB, int64(100000+i*1000), 8, record))
	}
	eng.Run()
	// After the first A request, usage alternates: B, A, B, A...
	swaps := 0
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1] {
			swaps++
		}
	}
	if swaps < 5 {
		t.Fatalf("Iso order %v: only %d alternations", order, swaps)
	}
}

func TestSharedSPULowestPriority(t *testing.T) {
	eng, d := newTestDisk(NewPIso(0))
	var order []core.SPUID
	record := func(r *Request) { order = append(order, r.SPU) }
	// First request occupies the disk; then a shared write and a user
	// read arrive. The user read must win even though the shared write
	// is closer to the head.
	d.Submit(req(spuA, 0, 8, record))
	d.Submit(&Request{Kind: Write, Sector: 16, Count: 8, SPU: core.SharedID, Done: record})
	d.Submit(req(spuB, 500000, 8, record))
	eng.Run()
	if order[1] != spuB || order[2] != core.SharedID {
		t.Fatalf("order = %v, want user before shared", order)
	}
}

func TestSharedChargesFlowBackToUsers(t *testing.T) {
	eng, d := newTestDisk(NewPIso(0))
	d.Submit(&Request{
		Kind: Write, Sector: 0, Count: 64, SPU: core.SharedID,
		Charges: []Charge{{SPU: spuA, Sectors: 48}, {SPU: spuB, Sectors: 16}},
	})
	eng.Run()
	ua, ub := d.Usage(spuA), d.Usage(spuB)
	if ua <= ub || ub <= 0 {
		t.Fatalf("charge-back usage = %g, %g", ua, ub)
	}
	if d.Usage(core.SharedID) != 0 {
		t.Fatalf("shared SPU retained %g usage", d.Usage(core.SharedID))
	}
}

func TestPIsoDeniesOverConsumer(t *testing.T) {
	eng, d := newTestDisk(NewPIso(64))
	// Give A a large decayed usage by transferring a big request first.
	d.Submit(req(spuA, 0, 256, nil))
	eng.Run()
	// Now queue one request from each; B must be served first even
	// though A's is closer to the head.
	var order []core.SPUID
	record := func(r *Request) { order = append(order, r.SPU) }
	blocker := req(spuB, 900000, 8, record)
	d.Submit(blocker) // takes the disk
	d.Submit(req(spuA, 900008, 8, record))
	d.Submit(req(spuB, 10000, 8, record))
	eng.Run()
	if order[1] != spuB {
		t.Fatalf("order = %v: PIso should deny the over-consuming SPU", order)
	}
}

func TestPIsoFallsBackToPositionWhenFair(t *testing.T) {
	eng, d := newTestDisk(NewPIso(1e9)) // huge threshold => pure position
	spc := d.Params().SectorsPerCylinder()
	var order []int64
	record := func(r *Request) { order = append(order, r.Sector/spc) }
	d.Submit(req(spuA, 0, 8, record))
	d.Submit(req(spuA, 700*spc, 8, record))
	d.Submit(req(spuB, 300*spc, 8, record))
	eng.Run()
	want := []int64{0, 300, 700}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestSchedulerNames(t *testing.T) {
	if NewPos().Name() != "Pos" || NewIso().Name() != "Iso" || NewPIso(0).Name() != "PIso" {
		t.Fatal("scheduler names must match the paper")
	}
}

func TestNewPIsoDefaultThreshold(t *testing.T) {
	if NewPIso(0).Threshold != DefaultBWThreshold {
		t.Fatal("default threshold not applied")
	}
	if NewPIso(100).Threshold != 100 {
		t.Fatal("explicit threshold ignored")
	}
}

func TestUtilizationBetweenZeroAndOne(t *testing.T) {
	eng, d := newTestDisk(NewPos())
	for i := 0; i < 10; i++ {
		d.Submit(req(spuA, int64(i)*5000, 16, nil))
	}
	eng.Run()
	// Let some idle time accumulate.
	eng.RunUntil(eng.Now() + sim.Second)
	u := d.Utilization()
	if u <= 0 || u >= 1 {
		t.Fatalf("utilization = %g", u)
	}
}

// Under PIso with two continuously-backlogged equal-share SPUs, the
// cumulative sectors served must stay roughly balanced — the bandwidth
// fairness goal of §3.3.
func TestPIsoBandwidthFairness(t *testing.T) {
	// A small threshold keeps the allowed absolute usage gap (threshold /
	// decay time-constant, in sectors/s) small relative to these request
	// rates, so the sector ratio must stay near 1.
	eng, d := newTestDisk(NewPIso(64))
	spc := d.Params().SectorsPerCylinder()
	// A issues big contiguous requests; B issues small scattered ones.
	// Keep both SPUs backlogged several requests deep so the fairness
	// criterion always has an alternative SPU to serve.
	var submitA, submitB func()
	secA := int64(0)
	i := 0
	submitA = func() {
		r := req(spuA, secA, 64, func(*Request) { submitA() })
		secA += 64
		d.Submit(r)
	}
	submitB = func() {
		cyl := int64(400 + (i*53)%1000)
		i++
		d.Submit(req(spuB, cyl*spc, 16, func(*Request) { submitB() }))
	}
	for k := 0; k < 6; k++ {
		submitA()
		submitB()
	}
	eng.RunUntil(10 * sim.Second)
	a := float64(d.PerSPU[spuA].Sectors)
	b := float64(d.PerSPU[spuB].Sectors)
	if a == 0 || b == 0 {
		t.Fatal("one SPU starved entirely")
	}
	ratio := a / b
	if ratio > 3 || ratio < 1.0/3 {
		t.Fatalf("sector ratio %.2f (A=%g B=%g): fairness not enforced", ratio, a, b)
	}
	// Under Pos the same duel is far more lopsided.
	eng2 := sim.NewEngine()
	d2 := New(eng2, HP97560(), NewPos(), 0)
	secA = 0
	i = 0
	var sA, sB func()
	sA = func() {
		r := req(spuA, secA, 64, func(*Request) { sA() })
		secA += 64
		d2.Submit(r)
	}
	sB = func() {
		cyl := int64(400 + (i*53)%1000)
		i++
		d2.Submit(req(spuB, cyl*spc, 16, func(*Request) { sB() }))
	}
	for k := 0; k < 6; k++ {
		sA()
		sB()
	}
	eng2.RunUntil(10 * sim.Second)
	// Under Pos the contiguous stream may lock B out entirely (that is
	// the §4.5 pathology); treat total starvation as an infinite ratio.
	posRatio := float64(d2.PerSPU[spuA].Sectors)
	if sb, ok := d2.PerSPU[spuB]; ok && sb.Sectors > 0 {
		posRatio /= float64(sb.Sectors)
	} else {
		posRatio = 1e9
	}
	if posRatio <= ratio {
		t.Fatalf("Pos ratio %.2f not more lopsided than PIso ratio %.2f", posRatio, ratio)
	}
}

// The driver never coalesces, as the unmerged IRIX 5.3 driver the
// paper's request counts assume: adjacent requests of one SPU queue and
// complete separately, and Stats.Merges stays 0.
func TestMergeOffByDefault(t *testing.T) {
	eng, d := newTestDisk(NewPos())
	d.Submit(req(spuA, 500000, 8, nil))
	d.Submit(req(spuA, 1000, 8, nil))
	d.Submit(req(spuA, 1008, 8, nil))
	if d.QueueLen() != 2 {
		t.Fatalf("queue %d: adjacent requests merged", d.QueueLen())
	}
	eng.Run()
	if d.Total.Requests != 3 || d.Total.Merges != 0 {
		t.Fatalf("requests %d merges %d, want 3 and 0", d.Total.Requests, d.Total.Merges)
	}
}
