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
	name   string
	shards []*Lock
}

// NewSharded creates n shards of the named lock (n minimum 1).
func NewSharded(eng *sim.Engine, name string, mode Mode, n int) *Sharded {
	if n < 1 {
		n = 1
	}
	s := &Sharded{name: name}
	for i := 0; i < n; i++ {
		s.shards = append(s.shards, New(eng, fmt.Sprintf("%s.%d", name, i), mode))
	}
	return s
}

// SetProfile wires every shard into the interference matrix.
func (s *Sharded) SetProfile(p *profile.Profiler) {
	for _, l := range s.shards {
		l.SetProfile(p)
	}
}

// Shard returns the shard for a hashed key.
func (s *Sharded) Shard(key uint64) *Lock {
	return s.shards[key%uint64(len(s.shards))]
}

// ForSPU returns the shard an SPU's traffic maps to.
func (s *Sharded) ForSPU(spu core.SPUID) *Lock {
	return s.shards[int(spu)%len(s.shards)]
}

// Locks returns the shards in order.
func (s *Sharded) Locks() []*Lock { return s.shards }

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

// Table is the kernel's registry of every modelled lock — event-based
// locks and accounting gates — so audits, snapshots, and CLI reports
// see one namespace. Sources are late-bound functions because lock
// populations move after construction: experiments re-stripe the
// page-insert lock, and per-SPU gates appear on first use.
type Table struct {
	locks []func() []*Lock
	gates []func() []*Gate

	// The incremental sweep's state (AuditChanged): the slice each
	// source returned when the sweep last attached its members, and the
	// sweep's list.
	seenLocks [][]*Lock
	seenGates [][]*Gate
	list      sweepList
}

// sweepList is what a table's next incremental sweep audits: each
// attached lock or gate that mutated since it last passed, and each
// lock that was held when it last passed.
type sweepList struct {
	locks []*Lock
	gates []*Gate
}

// NewTable creates an empty table.
func NewTable() *Table { return &Table{} }

// AddLocks registers a late-bound source of event-based locks. A source
// whose population changes returns a new slice or a longer one; it never
// overwrites the elements of a slice it returned, because the
// incremental sweep re-reads a source only when its slice changes.
func (t *Table) AddLocks(src func() []*Lock) { t.locks = append(t.locks, src) }

// AddGates registers a late-bound source of gates, under the same rule
// as AddLocks.
func (t *Table) AddGates(src func() []*Gate) { t.gates = append(t.gates, src) }

// Locks returns the live event-based locks, in registration order.
func (t *Table) Locks() []*Lock {
	var out []*Lock
	for _, src := range t.locks {
		out = append(out, src()...)
	}
	return out
}

// Gates returns the live gates, in registration order.
func (t *Table) Gates() []*Gate {
	var out []*Gate
	for _, src := range t.gates {
		out = append(out, src()...)
	}
	return out
}

// Audit runs every registered lock's and gate's conservation laws,
// returning the first failure. It iterates sources in place — the
// periodic invariant audit runs inside the zero-alloc dispatch window,
// so this path must not build combined slices.
func (t *Table) Audit() error {
	for _, src := range t.locks {
		for _, l := range src() {
			if err := l.Audit(); err != nil {
				return err
			}
		}
	}
	for _, src := range t.gates {
		for _, g := range src() {
			if err := g.Audit(); err != nil {
				return err
			}
		}
	}
	return nil
}

// AuditChanged is the periodic sweep's form of Audit. It runs the laws
// of every lock and gate that mutated since they last passed here, and
// of every held lock, whose release can fall overdue with no mutation.
// A lock or gate that passes leaves the list until its next mutation
// (a held lock stays on it); one that fails stays on it, so the next
// sweep reports it again, as Audit would. The first sweep, and the
// first after the sources' populations change, audits every lock and
// gate. Leaving an unchanged object out is sound only because this
// package alone writes the state its laws read (see the invariant
// package). A lock or gate is swept by at most one table. Apart from
// attaching a changed population, it allocates nothing.
func (t *Table) AuditChanged() error {
	if !t.sameLocks() || !t.sameGates() {
		t.attach()
	}
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

// sameLocks reports whether every lock source returns the slice it
// returned when the sweep last attached its locks. It reads no lock.
func (t *Table) sameLocks() bool {
	if len(t.seenLocks) != len(t.locks) {
		return false
	}
	for i, src := range t.locks {
		if !sameSlice(src(), t.seenLocks[i]) {
			return false
		}
	}
	return true
}

// sameGates is sameLocks for the gate sources.
func (t *Table) sameGates() bool {
	if len(t.seenGates) != len(t.gates) {
		return false
	}
	for i, src := range t.gates {
		if !sameSlice(src(), t.seenGates[i]) {
			return false
		}
	}
	return true
}

// sameSlice reports whether a and b are the same slice: one backing
// array and one length. The table keeps the slices it compares against,
// so their arrays cannot be reused for a new population.
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// attach re-reads the sources: it detaches the locks and gates it last
// attached, then attaches and lists every current one.
func (t *Table) attach() {
	for _, ls := range t.seenLocks {
		for _, l := range ls {
			l.sweep, l.listed = nil, false
		}
	}
	for _, gs := range t.seenGates {
		for _, g := range gs {
			g.sweep, g.listed = nil, false
		}
	}
	t.list.locks, t.list.gates = t.list.locks[:0], t.list.gates[:0]
	t.seenLocks, t.seenGates = t.seenLocks[:0], t.seenGates[:0]
	for _, src := range t.locks {
		ls := src()
		t.seenLocks = append(t.seenLocks, ls)
		for _, l := range ls {
			l.sweep = &t.list
			l.touched()
		}
	}
	for _, src := range t.gates {
		gs := src()
		t.seenGates = append(t.seenGates, gs)
		for _, g := range gs {
			g.sweep = &t.list
			g.touched()
		}
	}
}

// Snapshot encodes every lock and gate, in registration order.
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
