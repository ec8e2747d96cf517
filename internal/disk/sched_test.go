package disk

import (
	"fmt"
	"reflect"
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/profile"
	"perfiso/internal/sim"
)

// The schedulers' picks before they scanned the queue in place, kept as
// the references FuzzDiskPick compares them with: userCandidates
// rebuilds the candidate index slices and cscanBest recomputes every
// cylinder on every pick.

// cscanBest returns the queue index that C-SCAN would pick from the given
// candidate indices: the lowest starting cylinder at or ahead of the
// current head position in the upward sweep, wrapping to the lowest
// cylinder when the sweep passes the end (§3.3). Ties break by sector,
// then FIFO.
func cscanBest(d *Disk, candidates []int) int {
	best := -1
	bestWrap := -1
	better := func(cur, cand int) bool {
		a, b := d.queue[cand], d.queue[cur]
		ca, cb := d.params.CylinderOf(a.Sector), d.params.CylinderOf(b.Sector)
		if ca != cb {
			return ca < cb
		}
		if a.Sector != b.Sector {
			return a.Sector < b.Sector
		}
		return cand < cur // FIFO: earlier queue position first
	}
	for _, i := range candidates {
		cyl := d.params.CylinderOf(d.queue[i].Sector)
		if cyl >= d.headCyl {
			if best == -1 || better(best, i) {
				best = i
			}
		} else {
			if bestWrap == -1 || better(bestWrap, i) {
				bestWrap = i
			}
		}
	}
	if best != -1 {
		return best
	}
	return bestWrap
}

// userCandidates partitions the queue into user-SPU requests and
// shared/kernel requests, returning user indices and shared indices.
func userCandidates(d *Disk) (user, shared []int) {
	for i, r := range d.queue {
		if r.SPU == core.SharedID {
			shared = append(shared, i)
		} else {
			user = append(user, i)
		}
	}
	return user, shared
}

type refPos struct{}

func (refPos) Name() string { return "Pos" }

func (refPos) pick(d *Disk) int {
	all := make([]int, len(d.queue))
	for i := range d.queue {
		all[i] = i
	}
	return cscanBest(d, all)
}

type refIso struct{}

func (refIso) Name() string { return "Iso" }

func (refIso) pick(d *Disk) int {
	user, shared := userCandidates(d)
	cands := user
	if len(cands) == 0 {
		cands = shared
	}
	best := -1
	var bestRel float64
	for _, i := range cands {
		rel := d.usage.Relative(d.eng.Now(), d.queue[i].SPU)
		if best == -1 || rel < bestRel-1e-12 {
			best, bestRel = i, rel
		}
	}
	return best
}

type refPIso struct{ Threshold float64 }

func (refPIso) Name() string { return "PIso" }

func (p refPIso) pick(d *Disk) int {
	user, shared := userCandidates(d)
	if len(user) == 0 {
		return cscanBest(d, shared)
	}
	now := d.eng.Now()
	var active []core.SPUID
	seen := make(map[core.SPUID]bool)
	for _, i := range user {
		id := d.queue[i].SPU
		if !seen[id] {
			seen[id] = true
			active = append(active, id)
		}
	}
	mean := d.usage.MeanRelative(now, active)
	var passing []int
	for _, i := range user {
		if d.usage.Relative(now, d.queue[i].SPU) <= mean+p.Threshold {
			passing = append(passing, i)
		}
	}
	if len(passing) == 0 {
		passing = user
	}
	return cscanBest(d, passing)
}

// completion is one finished request as its submitter saw it.
type completion struct {
	id                int
	started, finished sim.Time
	sector            int64
	count             int
	failed            bool
}

// lockstep is a disk under test beside a reference disk on one engine:
// every operation goes to both, so both must stay in the same state.
type lockstep struct {
	eng      *sim.Engine
	got, ref *Disk
	gotLog   []completion
	refLog   []completion
	next     int
}

func (l *lockstep) submit(kind Kind, sector int64, count int, spu core.SPUID, charges []Charge) {
	id := l.next
	l.next++
	for _, side := range []struct {
		d   *Disk
		log *[]completion
	}{{l.got, &l.gotLog}, {l.ref, &l.refLog}} {
		log := side.log
		side.d.Submit(&Request{
			Kind: kind, Sector: sector, Count: count, SPU: spu, Charges: charges,
			Done: func(r *Request) {
				*log = append(*log, completion{id, r.Started, r.Finished, r.Sector, r.Count, r.Failed})
			},
		})
	}
}

func (l *lockstep) check(t *testing.T, step int) {
	t.Helper()
	g, r := l.got, l.ref
	if g.busy != r.busy || g.headCyl != r.headCyl || g.lastEnd != r.lastEnd || len(g.queue) != len(r.queue) {
		t.Fatalf("step %d: busy/head/lastEnd/queue %v/%d/%d/%d, reference %v/%d/%d/%d", step,
			g.busy, g.headCyl, g.lastEnd, len(g.queue), r.busy, r.headCyl, r.lastEnd, len(r.queue))
	}
	for i := range g.queue {
		a, b := g.queue[i], r.queue[i]
		if a.Kind != b.Kind || a.Sector != b.Sector || a.Count != b.Count || a.SPU != b.SPU || a.Submitted != b.Submitted {
			t.Fatalf("step %d: queue slot %d holds %+v, reference %+v", step, i, *a, *b)
		}
	}
	if !reflect.DeepEqual(l.gotLog, l.refLog) {
		t.Fatalf("step %d: completions\n%v\nreference\n%v", step, l.gotLog, l.refLog)
	}
	// Every pick reads (and so decays) the same meters at the same times.
	if !reflect.DeepEqual(g.usage, r.usage) {
		t.Fatalf("step %d: usage meters diverged from the reference", step)
	}
	if g.Total.Requests != r.Total.Requests {
		t.Fatalf("step %d: requests %d, reference %d", step, g.Total.Requests, r.Total.Requests)
	}
	if err := g.Audit(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
}

// FuzzDiskPick runs each scheduler beside its reference pick on one
// engine and requires the same service order, queue and meter state
// after every operation: submissions from three user SPUs and the
// shared SPU (shared-only queues included), at random sectors, right
// behind or ahead of a queued request (across cylinder boundaries too),
// or near the head (so C-SCAN wraps), and time advancing to the next
// completion or beyond. The first byte picks the scheduler and the PIso
// threshold. The seed corpus runs with the normal tests;
// `go test -run '^$' -fuzz FuzzDiskPick ./internal/disk` explores
// further.
func FuzzDiskPick(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 0, 0, 1, 2, 0, 0, 2, 3, 1, 3, 0, 0, 0, 0, 0, 3, 0, 0, 0})
	f.Add([]byte{6, 0, 1, 0, 1, 1, 1, 0, 2, 0, 2, 2, 2, 1, 3, 0, 0, 3, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 3, 0, 0})
	f.Add([]byte{1, 0, 1, 2, 0, 0, 2, 3, 1, 0, 3, 4, 2, 1, 1, 7, 3, 0, 2, 9, 0, 2, 5, 1})
	f.Add([]byte{14, 1, 1, 0, 1, 1, 2, 5, 0, 1, 3, 6, 2, 0, 0, 1, 3, 0, 0, 0, 1, 2, 1, 3})
	f.Add([]byte("PIso must pick what the old scan picked, wrap after wrap, merge after merge"))
	f.Add([]byte("7000001010009"))
	f.Add([]byte(")000X72000100070002000")) // PIso denies an SPU just above the mean
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg, ops := data[0], data[1:]
		thresholds := []float64{1, 16, DefaultBWThreshold, 1 << 30}
		var got, ref Scheduler
		switch cfg % 3 {
		case 0:
			got, ref = NewPos(), refPos{}
		case 1:
			got, ref = NewIso(), refIso{}
		default:
			th := thresholds[cfg/8%4]
			got, ref = &PIso{Threshold: th}, refPIso{Threshold: th}
		}
		eng := sim.NewEngine()
		l := &lockstep{eng: eng, got: New(eng, HP97560(), got, 0), ref: New(eng, HP97560(), ref, 0)}
		for _, d := range []*Disk{l.got, l.ref} {
			d.SetShare(core.FirstUserID+2, 2)
		}
		spus := []core.SPUID{core.SharedID, core.FirstUserID, core.FirstUserID + 1, core.FirstUserID + 2}
		p := l.got.params
		total, spc := p.TotalSectors(), p.SectorsPerCylinder()
		rng := sim.NewRNG(uint64(len(data)))
		for i, step := 0, 0; i+3 < len(ops); i, step = i+4, step+1 {
			op, a, b, c := ops[i], int(ops[i+1]), int(ops[i+2]), int(ops[i+3])
			switch op % 4 {
			case 0, 1:
				spu := spus[a%len(spus)]
				kind := Kind(b & 1)
				count := 8 * (1 + b>>1%16)
				sector := rng.Int63n(total - int64(count))
				q := l.got.queue
				switch mode := c % 5; {
				case mode == 1 && len(q) > 0: // right behind a queued request
					r := q[rng.Intn(len(q))]
					spu, kind, sector = r.SPU, r.Kind, r.Sector+int64(r.Count)
				case mode == 2 && len(q) > 0: // right ahead of one
					r := q[rng.Intn(len(q))]
					spu, kind, sector = r.SPU, r.Kind, r.Sector-int64(count)
				case mode == 3: // near the head, either side
					sector = int64(l.got.headCyl)*spc + int64(c-128)*64
				case mode == 4: // a cylinder's first sector
					sector = int64(1+rng.Intn(p.Cylinders-1)) * spc
				}
				if sector < 0 || sector+int64(count) > total {
					sector = 0
				}
				var charges []Charge
				if spu == core.SharedID && c&8 != 0 {
					charges = []Charge{{SPU: spus[1+c/16%3], Sectors: count}}
				}
				l.submit(kind, sector, count, spu, charges)
			case 2: // run to the next completion
				if eng.Step() {
					eng.RunUntil(eng.Now())
				}
			case 3: // let time pass: meters decay, the disk may go idle
				eng.RunUntil(eng.Now() + sim.Time(a%8)*sim.Time(b+1)*sim.Millisecond)
			}
			l.check(t, step)
		}
		eng.Run()
		l.check(t, len(ops)/4)
	})
}

// deepQueue returns a busy disk with a 1,024-deep queue mixing three
// user SPUs and the shared SPU.
func deepQueue(s Scheduler) *Disk {
	_, d := newTestDisk(s)
	d.Submit(req(spuA, 0, 8, nil)) // in service; the rest wait
	rng := sim.NewRNG(1)
	spus := []core.SPUID{spuA, spuB, spuB + 1, core.SharedID}
	for i := 0; i < 1024; i++ {
		d.Submit(req(spus[i%len(spus)], rng.Int63n(d.params.TotalSectors()-8), 8, nil))
	}
	return d
}

// TestPickAllocatesNothing pins each scheduler's cost model: a pick
// from a 1,024-deep queue allocates nothing.
func TestPickAllocatesNothing(t *testing.T) {
	for _, s := range []Scheduler{NewPos(), NewIso(), NewPIso(0)} {
		d := deepQueue(s)
		if allocs := testing.AllocsPerRun(20, func() { s.pick(d) }); allocs != 0 {
			t.Errorf("%s: pick allocates %.1f objects", s.Name(), allocs)
		}
	}
}

// TestBlameChargesEachQueuedRequest checks the blame pass's per-SPU
// charge against charging every queued request of another SPU the
// whole service time, one request at a time.
func TestBlameChargesEachQueuedRequest(t *testing.T) {
	for _, culprit := range []core.SPUID{spuA, spuB + 1, core.SharedID} {
		d := deepQueue(NewPIso(0))
		d.Profile = profile.New(d.eng)
		want := profile.New(d.eng)
		const total = 3*sim.Millisecond + 7
		for _, q := range d.queue {
			if q.SPU != culprit {
				want.AddTheft(q.SPU, culprit, profile.Disk, total)
			}
		}
		served := &Request{SPU: culprit}
		d.blame(served, total)
		if got, exp := d.Profile.Interference(), want.Interference(); !reflect.DeepEqual(got, exp) {
			t.Errorf("culprit spu%d: theft %v, per-request charges %v", culprit, got, exp)
		}
		for _, q := range d.queue {
			var thief core.SPUID // zero: never displaced
			if q.SPU != culprit {
				thief = culprit
			}
			if q.StolenBy != thief {
				t.Fatalf("culprit spu%d: request of spu%d StolenBy %d, want %d", culprit, q.SPU, q.StolenBy, thief)
			}
		}
		if allocs := testing.AllocsPerRun(20, func() { d.blame(served, total) }); allocs != 0 {
			t.Errorf("culprit spu%d: blame pass allocates %.1f objects", culprit, allocs)
		}
	}
}

func (c completion) String() string {
	return fmt.Sprintf("{#%d %v..%v [%d,+%d) failed=%v}", c.id, c.started, c.finished, c.sector, c.count, c.failed)
}
