package lock

import (
	"fmt"

	"perfiso/internal/core"
	"perfiso/internal/profile"
	"perfiso/internal/sim"
	"perfiso/internal/snap"
)

// Gate is the accounting-only lock flavour for synchronous hot paths —
// the run-queue and frame-pool manipulation the scheduler and memory
// manager do inline, where a real kernel would take a spinlock the
// event model cannot afford to serialize. A Gate tracks the busy
// window a real lock would impose: each acquisition extends busyUntil
// by Hold, and an acquisition arriving inside another SPU's window
// records the residual window as lock wait and interference-matrix
// theft. It never schedules events and never delays anything, so
// enabling a gate — at any Hold — cannot change a single table; it
// only makes the serialization visible.
//
// With Hold zero the gate degenerates to pure acquisition counting.
type Gate struct {
	eng  *sim.Engine
	name string

	// Hold is the simulated cost of one critical section.
	Hold sim.Time

	busyUntil sim.Time
	holder    core.SPUID // SPU blamed for the current busy window

	Acquisitions int64
	Contended    int64
	WaitTotal    sim.Time

	acqBySPU  []int64
	waitBySPU []sim.Time

	// sweep and listed place the gate on its table's incremental-sweep
	// list, as for Lock; Acquire, the only writer of audited state,
	// lists it.
	sweep  *sweepList
	listed bool

	prof *profile.Profiler
}

// NewGate creates a named gate with the given per-acquisition hold.
func NewGate(eng *sim.Engine, name string, hold sim.Time) *Gate {
	return &Gate{eng: eng, name: name, Hold: hold}
}

// SetProfile wires contended windows into the interference matrix.
func (g *Gate) SetProfile(p *profile.Profiler) { g.prof = p }

// Name returns the gate's name.
func (g *Gate) Name() string { return g.name }

// Acquire records one critical section entered by the SPU. Nil-safe:
// an absent gate costs one branch.
func (g *Gate) Acquire(spu core.SPUID) {
	if g == nil {
		return
	}
	g.touched()
	g.Acquisitions++
	g.ensureSPU(spu)
	g.acqBySPU[spu]++
	if g.Hold == 0 {
		return
	}
	now := g.eng.Now()
	if g.busyUntil > now {
		wait := g.busyUntil - now
		g.Contended++
		g.WaitTotal += wait
		g.waitBySPU[spu] += wait
		if g.prof != nil {
			g.prof.AddTheft(spu, g.holder, profile.Lock, wait)
		}
		g.busyUntil += g.Hold
	} else {
		g.busyUntil = now + g.Hold
	}
	g.holder = spu
}

// touched lists the gate for its table's next incremental sweep.
func (g *Gate) touched() {
	if g.sweep != nil && !g.listed {
		g.listed = true
		g.sweep.gates = append(g.sweep.gates, g)
	}
}

func (g *Gate) ensureSPU(spu core.SPUID) {
	for int(spu) >= len(g.acqBySPU) {
		g.acqBySPU = append(g.acqBySPU, 0)
		g.waitBySPU = append(g.waitBySPU, 0)
	}
}

// AcquisitionsBySPU and WaitBySPU read the per-SPU ledgers.
func (g *Gate) AcquisitionsBySPU(spu core.SPUID) int64 {
	if int(spu) >= len(g.acqBySPU) {
		return 0
	}
	return g.acqBySPU[spu]
}

func (g *Gate) WaitBySPU(spu core.SPUID) sim.Time {
	if int(spu) >= len(g.waitBySPU) {
		return 0
	}
	return g.waitBySPU[spu]
}

// MeanContendedWait is the residual busy window averaged over the
// acquisitions that hit one.
func (g *Gate) MeanContendedWait() sim.Time {
	if g.Contended == 0 {
		return 0
	}
	return g.WaitTotal / sim.Time(g.Contended)
}

// Audit re-verifies the gate's conservation laws: ledgers telescope to
// totals, contention never exceeds traffic, and a zero-hold gate never
// accumulates a busy window.
func (g *Gate) Audit() error {
	var acq int64
	var wait sim.Time
	for i := range g.acqBySPU {
		acq += g.acqBySPU[i]
		wait += g.waitBySPU[i]
	}
	if acq != g.Acquisitions || wait != g.WaitTotal {
		return fmt.Errorf("gate %s: per-SPU ledgers (acq %d wait %s) != totals (acq %d wait %s)",
			g.name, acq, wait, g.Acquisitions, g.WaitTotal)
	}
	if g.Contended > g.Acquisitions {
		return fmt.Errorf("gate %s: %d contended of %d acquisitions", g.name, g.Contended, g.Acquisitions)
	}
	if g.Hold == 0 && g.busyUntil != 0 {
		return fmt.Errorf("gate %s: zero hold but busy until %s", g.name, g.busyUntil)
	}
	return nil
}

// Snapshot encodes the gate's state for checkpoint/replay.
func (g *Gate) Snapshot(enc *snap.Encoder) {
	enc.Section("gate:" + g.name)
	enc.Int("hold", int64(g.Hold))
	enc.Int("busy_until", int64(g.busyUntil))
	enc.Int("holder", int64(g.holder))
	enc.Int("acquisitions", g.Acquisitions)
	enc.Int("contended", g.Contended)
	enc.Int("wait_total", int64(g.WaitTotal))
	for i := range g.acqBySPU {
		if g.acqBySPU[i] != 0 {
			enc.Str(fmt.Sprintf("spu%d", i), fmt.Sprintf("acq=%d wait=%d",
				g.acqBySPU[i], int64(g.waitBySPU[i])))
		}
	}
}

// GateSet routes a hot structure's acquisitions to either one shared
// gate (the coarse kernel lock an SMP kernel hangs the structure
// under) or a private per-SPU gate (the isolating layout PIso implies:
// per-SPU run queues, per-SPU frame pools). Private gates cannot
// produce cross-SPU lock theft by construction — one SPU's traffic
// never lands in another's busy window.
type GateSet struct {
	eng    *sim.Engine
	name   string
	hold   sim.Time
	shared *Gate
	perSPU []*Gate
	all    []*Gate // live gates in creation order, shared first
	prof   *profile.Profiler
}

// NewGateSet creates the set; shared picks the coarse single-gate
// layout, otherwise each SPU gets a private gate on first use.
func NewGateSet(eng *sim.Engine, name string, hold sim.Time, shared bool) *GateSet {
	s := &GateSet{eng: eng, name: name, hold: hold}
	if shared {
		s.shared = NewGate(eng, name, hold)
		s.all = append(s.all, s.shared)
	}
	return s
}

// SetProfile wires every gate (present and future) into the matrix.
func (s *GateSet) SetProfile(p *profile.Profiler) {
	s.prof = p
	if s.shared != nil {
		s.shared.SetProfile(p)
	}
	for _, g := range s.perSPU {
		if g != nil {
			g.SetProfile(p)
		}
	}
}

// Shared reports whether the set is one coarse gate.
func (s *GateSet) Shared() bool { return s.shared != nil }

// Name returns the set's name.
func (s *GateSet) Name() string { return s.name }

// Acquire records one critical section by the SPU on its gate.
// Nil-safe: an unconfigured set costs one branch.
func (s *GateSet) Acquire(spu core.SPUID) {
	if s == nil {
		return
	}
	if s.shared != nil {
		s.shared.Acquire(spu)
		return
	}
	s.gateFor(spu).Acquire(spu)
}

func (s *GateSet) gateFor(spu core.SPUID) *Gate {
	for int(spu) >= len(s.perSPU) {
		s.perSPU = append(s.perSPU, nil)
	}
	g := s.perSPU[spu]
	if g == nil {
		g = NewGate(s.eng, fmt.Sprintf("%s.spu%d", s.name, spu), s.hold)
		g.SetProfile(s.prof)
		s.perSPU[spu] = g
		s.all = append(s.all, g)
	}
	return g
}

// Gates returns every live gate in the set, shared first then per-SPU
// gates in creation order. The slice is cached so the periodic audit
// can walk it allocation-free; callers must not mutate it. Nil-safe.
func (s *GateSet) Gates() []*Gate {
	if s == nil {
		return nil
	}
	return s.all
}

// Totals aggregates the set's traffic and contention.
func (s *GateSet) Totals() (acquisitions, contended int64, wait sim.Time) {
	for _, g := range s.Gates() {
		acquisitions += g.Acquisitions
		contended += g.Contended
		wait += g.WaitTotal
	}
	return
}
