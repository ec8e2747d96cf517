package lock

import (
	"fmt"

	"perfiso/internal/core"
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
	ledger
	eng  *sim.Engine
	name string

	// Hold is the simulated cost of one critical section.
	Hold sim.Time

	busyUntil sim.Time
	holder    core.SPUID // SPU blamed for the current busy window

	// sweep and listed place the gate on its table's incremental-sweep
	// list, as for Lock; Acquire, the only writer of audited state,
	// lists it.
	sweep  *sweepList
	listed bool
}

// Name returns the gate's name.
func (g *Gate) Name() string { return g.name }

// Acquire records one critical section entered by the SPU. Nil-safe:
// an absent gate costs one branch. Contended counts acquisitions inside
// another's busy window; WaitTotal sums the residual windows.
func (g *Gate) Acquire(spu core.SPUID) {
	if g == nil {
		return
	}
	g.touched()
	g.acquired(spu)
	if g.Hold == 0 {
		return
	}
	now := g.eng.Now()
	if g.busyUntil > now {
		g.Contended++
		g.waited(spu, g.holder, g.busyUntil-now)
		g.busyUntil += g.Hold
	} else {
		g.busyUntil = now + g.Hold
	}
	g.holder = spu
}

// touched lists the gate for its table's next incremental sweep.
func (g *Gate) touched() {
	if !g.listed {
		g.listed = true
		g.sweep.gates = append(g.sweep.gates, g)
	}
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
	acq, wait, _ := g.sums()
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
	for i, c := range g.bySPU {
		if c.acq != 0 {
			enc.Str(fmt.Sprintf("spu%d", i), fmt.Sprintf("acq=%d wait=%d", c.acq, int64(c.wait)))
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
	tab    *Table
	name   string
	hold   sim.Time
	shared *Gate
	perSPU []*Gate
	all    []*Gate // live gates in creation order, shared first
}

// newGate makes one of the set's gates and lists it on its table.
func (s *GateSet) newGate(name string) *Gate {
	t := s.tab
	g := &Gate{ledger: ledger{prof: t.prof}, eng: t.eng, name: name, Hold: s.hold, sweep: &t.list}
	g.touched()
	s.all = append(s.all, g)
	return g
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
		g = s.newGate(fmt.Sprintf("%s.spu%d", s.name, spu))
		s.perSPU[spu] = g
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
