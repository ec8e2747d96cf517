package control

import (
	"math"
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/disk"
	"perfiso/internal/latency"
	"perfiso/internal/sim"
)

const window = 500 * sim.Millisecond

// rig is a minimal controller harness: an engine, three SPUs (two
// SLO-tracked tenants and an untracked heavyweight donor), a latency
// registry, and no kernel.
type rig struct {
	eng     *sim.Engine
	spus    *core.Manager
	lat     *latency.Registry
	a, b, n *core.SPU
	ta, tb  *latency.Tracker
	c       *Controller
	applied int
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	r := &rig{eng: sim.NewEngine(), spus: core.NewManager()}
	r.a = r.spus.NewSPU("a", 1, core.ShareIdle)
	r.b = r.spus.NewSPU("b", 1, core.ShareIdle)
	r.n = r.spus.NewSPU("n", 4, core.ShareIdle)
	r.lat = latency.NewRegistry(window)
	slo := latency.SLO{Threshold: 20 * sim.Millisecond, Target: 0.95}
	r.ta = r.lat.Tracker("a", r.a.ID(), slo)
	r.tb = r.lat.Tracker("b", r.b.ID(), slo)
	cfg.Enabled = true
	r.c = New(cfg, r.eng, r.spus, r.lat, nil, func() { r.applied++ })
	return r
}

// fill records n completions of the given duration into tr, spread
// through window idx.
func fill(tr *latency.Tracker, idx, n int, d sim.Time) {
	start := sim.Time(idx) * window
	step := window / sim.Time(n+1)
	for i := 0; i < n; i++ {
		tr.Record(start+sim.Time(i+1)*step, d)
	}
}

// tick advances the engine so the controller evaluates window idx, and
// runs one controller tick.
func (r *rig) tick(idx int) {
	r.eng.RunUntil(sim.Time(idx+1) * window)
	r.c.Tick()
}

func (r *rig) sumShare() float64 {
	var s float64
	for _, u := range r.spus.ActiveUsers() {
		s += u.Share()
	}
	return s
}

func TestRetryBudgetSchedule(t *testing.T) {
	b := NewBudget()
	want := []sim.Time{5, 10, 20, 40, 80, 80, 80, 80}
	var spent sim.Time
	for i, w := range want {
		wait, degraded := b.Next()
		if degraded {
			t.Fatalf("attempt %d degraded early (spent %v)", i, spent)
		}
		if wait != w*sim.Millisecond {
			t.Fatalf("attempt %d backoff = %v, want %vms", i, wait, w)
		}
		spent += wait
	}
	// Past the budget every attempt is slow-lane, forever.
	for i := 0; i < 3; i++ {
		wait, degraded := b.Next()
		if !degraded || wait != 160*sim.Millisecond {
			t.Fatalf("post-budget attempt: wait %v degraded %v, want 160ms true", wait, degraded)
		}
	}
}

// A hot tenant gains share from calm donors; the three controller laws
// (conservation, floors, bounded per-tick movement) hold at every tick.
func TestRetuneBoostsHotConservesAndFloors(t *testing.T) {
	r := newRig(t, Config{})
	cfg := r.c.Config()
	wsum := r.sumShare()
	for idx := 1; idx <= 8; idx++ {
		fill(r.ta, idx, 40, 50*sim.Millisecond) // all miss: a is hot
		fill(r.tb, idx, 40, sim.Millisecond)    // all hit: b is calm
		r.tick(idx)
		if d := math.Abs(r.sumShare() - wsum); d > 1e-9 {
			t.Fatalf("tick %d: share sum drifted %g from weight sum", idx, d)
		}
		var bound float64
		for _, u := range r.spus.ActiveUsers() {
			if u.Share() < Floor*u.Weight()-1e-9 {
				t.Fatalf("tick %d: SPU %s share %.3f below floor %.3f",
					idx, u.Name(), u.Share(), Floor*u.Weight())
			}
			bound += MaxTickFrac * u.Weight()
		}
		if r.c.LastTickDelta() > bound+1e-9 {
			t.Fatalf("tick %d: moved %.3f share, bound %.3f", idx, r.c.LastTickDelta(), bound)
		}
	}
	if r.a.Share() <= r.a.Weight() {
		t.Fatalf("hot tenant share %.3f did not rise above weight", r.a.Share())
	}
	if r.n.Share() >= r.n.Weight() {
		t.Fatalf("untracked donor share %.3f did not fall below weight", r.n.Share())
	}
	if r.c.Stat.Boosts == 0 || r.c.Stat.Retunes == 0 || r.applied == 0 {
		t.Fatalf("no actuation: %+v applied=%d", r.c.Stat, r.applied)
	}
	if r.a.Share() > cfg.MaxBoost*r.a.Weight()+1e-9 {
		t.Fatalf("share %.3f above MaxBoost ceiling", r.a.Share())
	}
}

// Calm ticks after a hot spell release the boost gradually (hysteresis:
// a Hold-length calm streak before multiplicative decay) and the shares
// converge back toward the weights.
func TestRetuneReleasesAfterCalmStreak(t *testing.T) {
	r := newRig(t, Config{})
	for idx := 1; idx <= 6; idx++ {
		fill(r.ta, idx, 40, 50*sim.Millisecond)
		fill(r.tb, idx, 40, sim.Millisecond)
		r.tick(idx)
	}
	boosted := r.a.Share()
	if boosted <= r.a.Weight() {
		t.Fatalf("setup failed: a not boosted (%.3f)", boosted)
	}
	for idx := 7; idx <= 30; idx++ {
		fill(r.ta, idx, 40, sim.Millisecond) // a calm now
		fill(r.tb, idx, 40, sim.Millisecond)
		r.tick(idx)
	}
	if d := math.Abs(r.a.Share() - r.a.Weight()); d > 0.05 {
		t.Fatalf("a's share %.3f did not converge to weight after long calm", r.a.Share())
	}
	if d := math.Abs(r.n.Share() - r.n.Weight()); d > 0.2 {
		t.Fatalf("donor share %.3f did not recover toward weight", r.n.Share())
	}
	if r.c.Stat.Releases == 0 {
		t.Fatal("no releases recorded")
	}
}

// A window with zero completions while requests are in flight is a
// stalled queue, not a calm tenant: the controller must keep the burn
// signal (and keep boosting), not read silence as recovery.
func TestStallGuardHoldsBurnThroughEmptyWindows(t *testing.T) {
	r := newRig(t, Config{})
	// Window 1-2: a runs hot with completions to establish the signal.
	for idx := 1; idx <= 2; idx++ {
		fill(r.ta, idx, 40, 50*sim.Millisecond)
		fill(r.tb, idx, 40, sim.Millisecond)
		r.tick(idx)
	}
	if !r.c.Admit(r.a.ID()) {
		t.Fatal("uncapped Admit refused")
	}
	after2 := r.a.Share()
	// Windows 3-5: a's queue is wedged — in-flight work, no completions.
	for idx := 3; idx <= 5; idx++ {
		fill(r.tb, idx, 40, sim.Millisecond)
		r.tick(idx)
	}
	if r.a.Share() <= after2 {
		t.Fatalf("stalled tenant share fell or froze: %.3f -> %.3f", after2, r.a.Share())
	}
	r.c.Done(r.a.ID())
	// With the queue drained and truly no traffic, calm resumes and the
	// boost eventually releases.
	for idx := 6; idx <= 20; idx++ {
		fill(r.ta, idx, 40, sim.Millisecond)
		fill(r.tb, idx, 40, sim.Millisecond)
		r.tick(idx)
	}
	if r.a.Share() > after2 {
		t.Fatalf("share %.3f never released after the stall cleared", r.a.Share())
	}
}

// Shedding engages only when retuning is out of headroom: burn past
// ShedBurn with the share pinned at the MaxBoost ceiling tightens the
// admission cap, Admit refuses past it, and calm windows relax the cap
// back off.
func TestAdmissionShedWalk(t *testing.T) {
	r := newRig(t, Config{MaxBoost: 1.01})
	id := r.a.ID()
	// Pin a at its (tiny) ceiling with hot-but-below-ShedBurn windows
	// (15% misses at a 95% target is burn 3): the share boosts to the
	// cap without triggering shedding yet.
	for idx := 1; idx <= 3; idx++ {
		fill(r.ta, idx, 34, sim.Millisecond)
		fill(r.ta, idx, 6, 50*sim.Millisecond)
		fill(r.tb, idx, 40, sim.Millisecond)
		r.tick(idx)
	}
	if r.a.Share() < 1.01-1e-9 {
		t.Fatalf("setup: a's share %.5f not at ceiling", r.a.Share())
	}
	if got := r.c.Cap(id); got != 0 {
		t.Fatalf("cap = %d before any ShedBurn window, want 0", got)
	}
	for i := 0; i < 20; i++ {
		if !r.c.Admit(id) {
			t.Fatalf("admit %d refused before any cap", i)
		}
	}
	// A window with burn past ShedBurn: cap = 3/4 of in-flight.
	fill(r.ta, 4, 40, 50*sim.Millisecond)
	r.tick(4)
	if got := r.c.Cap(id); got != 15 {
		t.Fatalf("cap = %d, want 15 (3/4 of 20 in flight)", got)
	}
	if r.c.Admit(id) {
		t.Fatal("admit above cap succeeded")
	}
	if r.c.Stat.Shed != 1 || r.ShedOf(id) != 1 {
		t.Fatalf("shed not counted: stat %d, spu %d", r.c.Stat.Shed, r.ShedOf(id))
	}
	// Drain and run calm windows: the cap doubles away and clears.
	for i := 0; i < 20; i++ {
		r.c.Done(id)
	}
	for idx := 5; r.c.Cap(id) != 0; idx++ {
		if idx > 20 {
			t.Fatalf("cap never cleared (still %d)", r.c.Cap(id))
		}
		fill(r.ta, idx, 40, sim.Millisecond)
		fill(r.tb, idx, 40, sim.Millisecond)
		r.tick(idx)
	}
	if !r.c.Admit(id) {
		t.Fatal("admit refused after uncap")
	}
	r.c.Done(id)
}

// ShedOf reads the per-SPU shed count through the controller state.
func (r *rig) ShedOf(id core.SPUID) int64 { return r.c.st(id).shed }

// The breaker trips on fault-degraded disks, heals when the fault
// lifts, and Fallback routes round-robin to the nearest healthy disk.
func TestBreakerTripHealAndFallback(t *testing.T) {
	eng := sim.NewEngine()
	spus := core.NewManager()
	lat := latency.NewRegistry(window)
	disks := make([]*disk.Disk, 3)
	for i := range disks {
		disks[i] = disk.New(eng, disk.Params{}, disk.NewPos(), 0)
	}
	c := New(Config{Enabled: true}, eng, spus, lat, disks, nil)
	if c.BreakerOpen(0) || c.BreakerOpen(1) || c.BreakerOpen(2) {
		t.Fatal("breaker open on healthy disks")
	}
	disks[1].SetSlow(6)
	if !c.BreakerOpen(1) {
		t.Fatal("breaker did not trip on 6x slow disk")
	}
	c.Tick()
	if c.Stat.Trips != 1 {
		t.Fatalf("trips = %d, want 1", c.Stat.Trips)
	}
	if got := c.Fallback(1); got != 2 {
		t.Fatalf("Fallback(1) = %d, want 2", got)
	}
	disks[2].SetSlow(6)
	if got := c.Fallback(1); got != 0 {
		t.Fatalf("Fallback(1) = %d with disk2 also down, want 0", got)
	}
	disks[0].SetSlow(6)
	if got := c.Fallback(1); got != -1 {
		t.Fatalf("Fallback(1) = %d with all disks down, want -1", got)
	}
	disks[0].SetSlow(1)
	disks[1].SetSlow(1)
	disks[2].SetSlow(1)
	if c.BreakerOpen(1) {
		t.Fatal("breaker still open after heal")
	}
	c.Tick()
	if c.Stat.Trips != 1 {
		t.Fatalf("heal counted as a trip: %d", c.Stat.Trips)
	}
	// Out-of-range probes and nil controllers are safe no-ops.
	if c.BreakerOpen(-1) || c.BreakerOpen(99) {
		t.Fatal("out-of-range breaker probe reported open")
	}
	var nilc *Controller
	if nilc.BreakerOpen(0) {
		t.Fatal("nil controller breaker open")
	}
}
