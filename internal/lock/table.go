package lock

import (
	"fmt"
	"strings"

	"perfiso/internal/core"
	"perfiso/internal/profile"
	"perfiso/internal/sim"
	"perfiso/internal/snap"
)

// Sharded spreads one logical lock over n independent shards — the
// §3.4 remediation ("this problem was later fixed by using a finer
// grain locking structure"). Callers hash their protected object to a
// shard; per-SPU layouts route each SPU's traffic to shard spu mod n,
// so at n at or above the SPU count every SPU owns a private shard and
// cross-SPU lock interference vanishes by construction.
type Sharded struct {
	shards []*Lock
}

// Shard returns the shard for a hashed key.
func (s *Sharded) Shard(key uint64) *Lock {
	return s.shards[key%uint64(len(s.shards))]
}

// Len returns the shard count.
func (s *Sharded) Len() int { return len(s.shards) }

// Totals aggregates acquisition and wait across the shards.
func (s *Sharded) Totals() (acquisitions int64, wait sim.Time) {
	for _, l := range s.shards {
		acquisitions += l.Acquisitions
		wait += l.WaitTotal
	}
	return
}

// Table is the kernel's lock table. It makes every modelled lock —
// event-based locks, their shards, and gate sets with their gates — so
// audits, snapshots, and CLI reports see one namespace, and each lock
// and gate is on the table's incremental-sweep list and wired to its
// profiler from the moment it exists.
type Table struct {
	eng  *sim.Engine
	prof *profile.Profiler

	locks []*Lock    // in creation order
	sets  []*GateSet // in creation order
	list  sweepList  // what the next incremental sweep audits
}

// sweepList is what a table's next incremental sweep audits: each lock
// or gate made or mutated since it last passed, and each lock that was
// held when it last passed.
type sweepList struct {
	locks []*Lock
	gates []*Gate
}

// NewTable creates an empty table whose locks run on eng and report
// contended waits to prof as lock theft; prof is nil when profiling is
// off.
func NewTable(eng *sim.Engine, prof *profile.Profiler) *Table {
	return &Table{eng: eng, prof: prof}
}

// NewLock makes a named lock. The name appears in audits, snapshots,
// and the lock report.
func (t *Table) NewLock(name string, mode Mode) *Lock {
	l := &Lock{ledger: ledger{prof: t.prof}, eng: t.eng, name: name, mode: mode, sweep: &t.list}
	l.relFn = func(arg uint64) { l.release(core.SPUID(arg>>1), arg&1 == 1) }
	l.touched()
	t.locks = append(t.locks, l)
	return l
}

// NewSharded makes n shards of the named lock (n minimum 1), named
// name.0 to name.n-1.
func (t *Table) NewSharded(name string, mode Mode, n int) *Sharded {
	s := &Sharded{shards: make([]*Lock, max(n, 1))}
	for i := range s.shards {
		s.shards[i] = t.NewLock(fmt.Sprintf("%s.%d", name, i), mode)
	}
	return s
}

// NewGateSet makes a gate set whose gates hold for hold per
// acquisition; shared picks the coarse single-gate layout, otherwise
// each SPU gets a private gate, named name.spuN, on first use.
func (t *Table) NewGateSet(name string, hold sim.Time, shared bool) *GateSet {
	s := &GateSet{tab: t, name: name, hold: hold}
	if shared {
		s.shared = s.newGate(name)
	}
	t.sets = append(t.sets, s)
	return s
}

// Locks returns the event-based locks in creation order. Callers must
// not mutate the slice.
func (t *Table) Locks() []*Lock { return t.locks }

// Gates returns the gates set by set, in the order the sets were made.
func (t *Table) Gates() []*Gate {
	var out []*Gate
	for _, s := range t.sets {
		out = append(out, s.all...)
	}
	return out
}

// Audit runs every lock's and gate's conservation laws, returning the
// first failure.
func (t *Table) Audit() error {
	for _, l := range t.locks {
		if err := l.Audit(); err != nil {
			return err
		}
	}
	for _, s := range t.sets {
		for _, g := range s.all {
			if err := g.Audit(); err != nil {
				return err
			}
		}
	}
	return nil
}

// AuditChanged is the periodic sweep's form of Audit. It runs the laws
// of every lock and gate made or mutated since they last passed here,
// and of every held lock, whose release can fall overdue with no
// mutation. A lock or gate that passes leaves the list until its next
// mutation (a held lock stays on it); one that fails stays on it, so
// the next sweep reports it again, as Audit would. Leaving an unchanged
// object out is sound only because this package alone writes the state
// its laws read (see the invariant package). It allocates nothing.
func (t *Table) AuditChanged() error {
	locks := t.list.locks
	n := 0
	for i, l := range locks {
		if err := l.Audit(); err != nil {
			// The failed lock and those not yet audited stay listed.
			t.list.locks = locks[:n+copy(locks[n:], locks[i:])]
			return err
		}
		if l.held() {
			locks[n] = l
			n++
		} else {
			l.listed = false
		}
	}
	t.list.locks = locks[:n]
	gates := t.list.gates
	for i, g := range gates {
		if err := g.Audit(); err != nil {
			t.list.gates = gates[:copy(gates, gates[i:])]
			return err
		}
		g.listed = false
	}
	t.list.gates = gates[:0]
	return nil
}

// Snapshot encodes every lock and gate, in the order of Locks and Gates.
func (t *Table) Snapshot(enc *snap.Encoder) {
	for _, l := range t.Locks() {
		l.Snapshot(enc)
	}
	for _, g := range t.Gates() {
		g.Snapshot(enc)
	}
}

// String renders the table as the fixed-width report pisosim prints:
// one row per lock with traffic, contention, and undiluted stall
// stats. Locks with no traffic are elided.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %6s %10s %10s %14s %10s\n",
		"lock", "mode", "acq", "contended", "stall/cont", "mean qlen")
	for _, l := range t.Locks() {
		if l.Acquisitions == 0 && l.QueueLen() == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-28s %6s %10d %10d %14s %10.3f\n",
			l.Name(), l.Mode(), l.Acquisitions, l.Contended,
			l.MeanContendedWait(), l.MeanQueueLen())
	}
	for _, g := range t.Gates() {
		if g.Acquisitions == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-28s %6s %10d %10d %14s %10s\n",
			g.Name(), "gate", g.Acquisitions, g.Contended,
			g.MeanContendedWait(), "-")
	}
	return b.String()
}
