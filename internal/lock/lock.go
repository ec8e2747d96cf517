// Package lock models kernel locks as first-class simulated resources.
// §3.4 of the paper showed a single kernel semaphore (the IRIX inode
// lock) silently breaking performance isolation: an SPU that never
// shares CPU, memory, or disk with its neighbours still stalls behind
// their lock holds. This package generalizes the ad-hoc fs semaphore
// into one lock model the whole kernel shares, so every lock carries
// per-SPU hold/wait ledgers, tags the holder that made each waiter
// queue, and feeds the victim×culprit interference matrix — turning
// "locked in, leaked out" interference into a measured quantity.
//
// Two flavours cover the kernel's needs:
//
//   - Lock is the event-based semaphore (mutex or reader-writer): an
//     Acquire either grants immediately or queues FIFO, the grant runs
//     the caller's continuation, and the hold is returned by a
//     scheduled release event. It really serializes simulated time, so
//     it models locks whose contention the paper *measured* (the inode
//     lock, the page-insert stripes).
//
//   - Gate (gate.go) is the accounting-only flavour for synchronous
//     hot paths (run-queue and frame-pool manipulation): it measures
//     the serialization a real kernel lock would impose without
//     perturbing event timing, so enabling it never changes a table.
//
// Both variants audit the same conservation laws (see Audit) and
// snapshot their full state for checkpoint/replay.
package lock

import (
	"fmt"

	"perfiso/internal/core"
	"perfiso/internal/profile"
	"perfiso/internal/sim"
	"perfiso/internal/snap"
	"perfiso/internal/stats"
)

// Mode selects mutex or reader-writer semantics.
type Mode int

const (
	// Mutex admits one holder at a time regardless of shared/exclusive.
	Mutex Mode = iota
	// RW admits concurrent shared holders; exclusive holders are alone.
	RW
)

func (m Mode) String() string {
	switch m {
	case Mutex:
		return "mutex"
	case RW:
		return "rw"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// waiter is one queued acquisition.
type waiter struct {
	spu    core.SPUID
	shared bool
	hold   sim.Time
	fn     func()
	since  sim.Time
	// culprit is the holder blamed for this waiter queueing: the
	// foreign SPU holding the lock at enqueue time (self when no
	// foreign holder, which the profiler drops).
	culprit core.SPUID
}

// Lock is a simulated kernel semaphore with FIFO queueing, per-SPU
// wait/hold ledgers, and culprit-tagged interference accounting. The
// zero value is not usable; call New.
//
// The exported counters are cumulative over the run; all times are
// simulated nanoseconds.
type Lock struct {
	eng  *sim.Engine
	name string
	mode Mode

	// Holder state.
	readers    int
	writer     bool
	writerSPU  core.SPUID
	readerSPUs []core.SPUID // insertion order, for culprit lookup

	// FIFO wait queue as a compacting dequeue: head indexes the first
	// live waiter, so popping never re-slices away the backing array
	// (the seed semaphore's s.queue = s.queue[1:] grew memory without
	// bound under sustained contention).
	queue []waiter
	head  int

	// draining marks an in-progress release drain: Acquires that would
	// grant immediately instead join the queue tail and are granted in
	// the same drain at the same instant, so grant callbacks run
	// strictly sequentially — never nested, never mutating a queue a
	// drain loop is iterating.
	draining bool
	batch    []waiter // drain scratch, reused across releases

	// Acquisitions counts grants; Contended counts acquisitions that
	// queued. WaitTotal is queueing delay summed over every
	// acquisition; ContendedWait only over the contended ones, which
	// is the §3.4 "additional stall time" undiluted by uncontended
	// traffic. HoldTotal sums granted hold times.
	Acquisitions  int64
	Contended     int64
	WaitTotal     sim.Time
	ContendedWait sim.Time
	HoldTotal     sim.Time

	// grants/releases and releaseDue feed the audit laws: grants −
	// releases is the live holder count, and any outstanding hold has
	// a release event due at or after now (loaned time is revocable,
	// nobody holds forever).
	grants     int64
	releases   int64
	releaseDue sim.Time

	qlen stats.TimeWeighted // time-weighted queue length

	// Dense per-SPU ledgers, indexed by SPUID.
	waitBySPU []sim.Time
	holdBySPU []sim.Time
	acqBySPU  []int64

	prof  *profile.Profiler
	relFn func(uint64) // pre-bound release callback (zero-alloc events)
}

// New creates a named lock on the engine. The name appears in audits,
// snapshots, and lock tables.
func New(eng *sim.Engine, name string, mode Mode) *Lock {
	l := &Lock{eng: eng, name: name, mode: mode}
	l.relFn = func(arg uint64) { l.release(core.SPUID(arg>>1), arg&1 == 1) }
	return l
}

// SetProfile wires contended waits into the interference matrix as
// Lock-resource theft, blamed on the holder at enqueue time.
func (l *Lock) SetProfile(p *profile.Profiler) { l.prof = p }

// Name returns the lock's name.
func (l *Lock) Name() string { return l.name }

// Mode returns the lock's admission mode.
func (l *Lock) Mode() Mode { return l.mode }

// QueueLen returns the number of queued waiters.
func (l *Lock) QueueLen() int { return len(l.queue) - l.head }

// Holders returns the live holder population.
func (l *Lock) Holders() (readers int, writerHeld bool) {
	return l.readers, l.writer
}

// Acquire requests the lock for the SPU and calls fn when granted —
// immediately when the lock admits the request and nobody is queued,
// otherwise after the FIFO queue drains to it. The grant keeps the
// lock held for hold simulated time and then releases it via a
// scheduled event. Under Mutex mode every acquisition is exclusive
// regardless of shared.
func (l *Lock) Acquire(spu core.SPUID, shared bool, hold sim.Time, fn func()) {
	if l.mode == Mutex {
		shared = false
	}
	now := l.eng.Now()
	w := waiter{spu: spu, shared: shared, hold: hold, fn: fn, since: now}
	if !l.draining && l.canGrant(w) && l.QueueLen() == 0 {
		l.admit(w, now)
		w.fn()
		l.scheduleRelease(w, now)
		return
	}
	// Queue it — during a drain even an admissible request queues, so
	// the drain grants it in FIFO order without nesting callbacks.
	l.Contended++
	w.culprit = l.culpritFor(spu)
	l.queue = append(l.queue, w)
	l.qlen.Set(now, float64(l.QueueLen()))
}

// canGrant reports whether the waiter could hold the lock right now.
func (l *Lock) canGrant(w waiter) bool {
	if w.shared {
		return !l.writer
	}
	return !l.writer && l.readers == 0
}

// culpritFor picks the holder blamed for a queueing waiter: the
// current writer, else the first reader belonging to another SPU. A
// same-SPU culprit is self-interference, which AddTheft drops.
func (l *Lock) culpritFor(spu core.SPUID) core.SPUID {
	if l.writer {
		return l.writerSPU
	}
	for _, r := range l.readerSPUs {
		if r != spu {
			return r
		}
	}
	if len(l.readerSPUs) > 0 {
		return l.readerSPUs[0]
	}
	return spu
}

// admit grants the waiter: stats, holder state, and interference
// blame. It does not run fn or schedule the release — callers do both
// afterwards, in that order, because the grant continuation's events
// must enqueue before the release event to keep same-instant dispatch
// order identical to the original semaphore.
func (l *Lock) admit(w waiter, now sim.Time) {
	wait := now - w.since
	l.Acquisitions++
	l.grants++
	l.WaitTotal += wait
	l.ensureSPU(w.spu)
	l.acqBySPU[w.spu]++
	l.waitBySPU[w.spu] += wait
	l.holdBySPU[w.spu] += w.hold
	l.HoldTotal += w.hold
	if wait > 0 && l.prof != nil {
		l.prof.AddTheft(w.spu, w.culprit, profile.Lock, wait)
	}
	if w.shared {
		l.readers++
		l.readerSPUs = append(l.readerSPUs, w.spu)
	} else {
		l.writer = true
		l.writerSPU = w.spu
	}
}

// scheduleRelease books the end of the waiter's hold.
func (l *Lock) scheduleRelease(w waiter, now sim.Time) {
	if due := now + w.hold; due > l.releaseDue {
		l.releaseDue = due
	}
	l.eng.AfterU64(w.hold, "lock.release", l.relFn, uint64(w.spu)<<1|b2u(w.shared))
}

// release returns a hold and drains the queue. Only the scheduled
// release events call it.
func (l *Lock) release(spu core.SPUID, shared bool) {
	l.releases++
	if shared {
		l.readers--
		if l.readers < 0 {
			panic(fmt.Sprintf("lock %s: reader release with no readers", l.name))
		}
		l.dropReader(spu)
	} else {
		if !l.writer {
			panic(fmt.Sprintf("lock %s: writer release with no writer", l.name))
		}
		l.writer = false
	}
	l.drain(l.eng.Now())
}

// drain grants every admissible waiter. Each round snapshots the
// grantable batch — applying holder state while popping so admission
// checks see each grant — and only then runs the batch's callbacks in
// FIFO order, all at the same instant. A callback that re-Acquires
// lands on the queue tail and, if admissible, is granted by the next
// round; callbacks therefore never nest and never mutate a queue
// mid-iteration (the seed semaphore ran them inside its pop loop).
func (l *Lock) drain(now sim.Time) {
	if l.draining {
		return
	}
	l.draining = true
	for {
		batch := l.batch[:0]
		for l.QueueLen() > 0 && l.canGrant(l.queue[l.head]) {
			w := l.pop()
			l.ContendedWait += now - w.since
			l.admit(w, now)
			batch = append(batch, w)
		}
		l.batch = batch[:0] // keep grown capacity for the next release
		if len(batch) == 0 {
			break
		}
		l.qlen.Set(now, float64(l.QueueLen()))
		for i := range batch {
			batch[i].fn()
			l.scheduleRelease(batch[i], now)
		}
	}
	l.draining = false
}

// pop removes and returns the queue head, compacting the backing array
// once the dead prefix dominates so sustained contention runs in
// bounded, eventually allocation-free memory.
func (l *Lock) pop() waiter {
	w := l.queue[l.head]
	l.queue[l.head] = waiter{} // drop the fn reference
	l.head++
	if l.head == len(l.queue) {
		l.queue = l.queue[:0]
		l.head = 0
	} else if l.head >= 32 && l.head > len(l.queue)/2 {
		n := copy(l.queue, l.queue[l.head:])
		clearTail := l.queue[n:]
		for i := range clearTail {
			clearTail[i] = waiter{}
		}
		l.queue = l.queue[:n]
		l.head = 0
	}
	return w
}

// dropReader removes the first ledger entry for the SPU, preserving
// the insertion order of the remaining readers.
func (l *Lock) dropReader(spu core.SPUID) {
	for i, r := range l.readerSPUs {
		if r == spu {
			l.readerSPUs = append(l.readerSPUs[:i], l.readerSPUs[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("lock %s: release by spu%d which holds no read lock", l.name, spu))
}

func (l *Lock) ensureSPU(spu core.SPUID) {
	for int(spu) >= len(l.acqBySPU) {
		l.acqBySPU = append(l.acqBySPU, 0)
		l.waitBySPU = append(l.waitBySPU, 0)
		l.holdBySPU = append(l.holdBySPU, 0)
	}
}

// MeanWait is queueing delay averaged over every acquisition — the
// seed semaphore's statistic, kept for the §3.4 inode-lock ablation
// table. It dilutes stalls with uncontended traffic; prefer
// MeanContendedWait for stall analysis.
func (l *Lock) MeanWait() sim.Time {
	if l.Acquisitions == 0 {
		return 0
	}
	return l.WaitTotal / sim.Time(l.Acquisitions)
}

// MeanContendedWait is queueing delay averaged over only the
// acquisitions that queued: the paper's "additional stall time" per
// contended lock operation.
func (l *Lock) MeanContendedWait() sim.Time {
	if l.Contended == 0 {
		return 0
	}
	return l.ContendedWait / sim.Time(l.Contended)
}

// MeanQueueLen is the time-weighted average queue length since the
// lock was created.
func (l *Lock) MeanQueueLen() float64 { return l.qlen.Average(l.eng.Now()) }

// MaxQueueLen is the longest queue ever observed.
func (l *Lock) MaxQueueLen() int { return int(l.qlen.Max()) }

// AcquisitionsBySPU, WaitBySPU, and HoldBySPU read the per-SPU
// ledgers; SPUs the lock never saw report zero.
func (l *Lock) AcquisitionsBySPU(spu core.SPUID) int64 {
	if int(spu) >= len(l.acqBySPU) {
		return 0
	}
	return l.acqBySPU[spu]
}

func (l *Lock) WaitBySPU(spu core.SPUID) sim.Time {
	if int(spu) >= len(l.waitBySPU) {
		return 0
	}
	return l.waitBySPU[spu]
}

func (l *Lock) HoldBySPU(spu core.SPUID) sim.Time {
	if int(spu) >= len(l.holdBySPU) {
		return 0
	}
	return l.holdBySPU[spu]
}

// Audit re-verifies the lock conservation laws:
//
//  1. Holder/waiter accounting — grants minus releases equals the live
//     holder population, the reader ledger matches the reader count,
//     and contended counts bracket the queue.
//  2. Exclusion — never a reader while the writer holds; Mutex mode
//     never has readers at all.
//  3. Liveness — a non-empty queue implies someone holds the lock
//     (otherwise the release drain would have granted the head).
//  4. Revocability of loaned hold time — while anyone holds the lock a
//     release event is due at or after now, so every hold is a loan
//     the simulated clock will reclaim.
//  5. Ledger conservation — the per-SPU wait/hold/acquisition ledgers
//     telescope exactly to the lock-wide totals, and contended wait
//     never exceeds total wait.
func (l *Lock) Audit() error {
	now := l.eng.Now()
	holders := int64(l.readers)
	if l.writer {
		holders++
	}
	if l.grants-l.releases != holders {
		return fmt.Errorf("lock %s: %d grants - %d releases != %d holders",
			l.name, l.grants, l.releases, holders)
	}
	if len(l.readerSPUs) != l.readers {
		return fmt.Errorf("lock %s: reader ledger has %d entries for %d readers",
			l.name, len(l.readerSPUs), l.readers)
	}
	q := int64(l.QueueLen())
	if l.Contended < q || l.Contended > l.Acquisitions+q {
		return fmt.Errorf("lock %s: contended count %d outside [%d, %d]",
			l.name, l.Contended, q, l.Acquisitions+q)
	}
	if l.writer && l.readers > 0 {
		return fmt.Errorf("lock %s: %d readers while writer (spu%d) holds",
			l.name, l.readers, l.writerSPU)
	}
	if l.mode == Mutex && l.readers > 0 {
		return fmt.Errorf("lock %s: mutex with %d readers", l.name, l.readers)
	}
	if q > 0 && holders == 0 {
		return fmt.Errorf("lock %s: %d waiters queued on an unheld lock", l.name, q)
	}
	if holders > 0 && l.releaseDue < now {
		return fmt.Errorf("lock %s: %d holders but last release was due at %s (now %s)",
			l.name, holders, l.releaseDue, now)
	}
	var wait, hold sim.Time
	var acq int64
	for i := range l.acqBySPU {
		acq += l.acqBySPU[i]
		wait += l.waitBySPU[i]
		hold += l.holdBySPU[i]
	}
	if acq != l.Acquisitions || wait != l.WaitTotal || hold != l.HoldTotal {
		return fmt.Errorf("lock %s: per-SPU ledgers (acq %d wait %s hold %s) != totals (acq %d wait %s hold %s)",
			l.name, acq, wait, hold, l.Acquisitions, l.WaitTotal, l.HoldTotal)
	}
	if l.ContendedWait > l.WaitTotal {
		return fmt.Errorf("lock %s: contended wait %s exceeds total wait %s",
			l.name, l.ContendedWait, l.WaitTotal)
	}
	return nil
}

// Snapshot encodes the lock's full state — holders, queue, counters,
// ledgers — for checkpoint/replay byte-identity.
func (l *Lock) Snapshot(enc *snap.Encoder) {
	enc.Section("lock:" + l.name)
	enc.Str("mode", l.mode.String())
	enc.Int("readers", int64(l.readers))
	enc.Bool("writer", l.writer)
	if l.writer {
		enc.Int("writer_spu", int64(l.writerSPU))
	}
	for i, r := range l.readerSPUs {
		enc.Int(fmt.Sprintf("reader%d", i), int64(r))
	}
	for i := l.head; i < len(l.queue); i++ {
		w := l.queue[i]
		enc.Str(fmt.Sprintf("waiter%d", i-l.head),
			fmt.Sprintf("spu%d shared=%t hold=%s since=%s", w.spu, w.shared, w.hold, w.since))
	}
	enc.Int("acquisitions", l.Acquisitions)
	enc.Int("contended", l.Contended)
	enc.Int("grants", l.grants)
	enc.Int("releases", l.releases)
	enc.Int("wait_total", int64(l.WaitTotal))
	enc.Int("contended_wait", int64(l.ContendedWait))
	enc.Int("hold_total", int64(l.HoldTotal))
	enc.Int("release_due", int64(l.releaseDue))
	for i := range l.acqBySPU {
		if l.acqBySPU[i] != 0 {
			enc.Str(fmt.Sprintf("spu%d", i), fmt.Sprintf("acq=%d wait=%d hold=%d",
				l.acqBySPU[i], int64(l.waitBySPU[i]), int64(l.holdBySPU[i])))
		}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
