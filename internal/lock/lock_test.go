package lock

import (
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/profile"
	"perfiso/internal/sim"
)

const (
	spuA = core.FirstUserID
	spuB = core.FirstUserID + 1
	spuC = core.FirstUserID + 2
)

// The original fs.Semaphore ran grant callbacks inside its release
// drain loop, so a callback that re-acquired the lock could be granted
// immediately — nesting one grant callback inside another and mutating
// the queue the drain was iterating. The lock's drain snapshots each
// grantable batch and runs callbacks strictly sequentially, so nesting
// depth never exceeds one, even when a callback re-acquires an
// admissible lock at the drain instant.
func TestGrantCallbacksNeverNest(t *testing.T) {
	eng := sim.NewEngine()
	l := New(eng, "t", RW)
	depth, maxDepth := 0, 0
	enter := func() {
		depth++
		if depth > maxDepth {
			maxDepth = depth
		}
	}
	var reGrantAt sim.Time = -1
	l.Acquire(spuA, false, 10*sim.Millisecond, func() {})
	l.Acquire(spuB, true, sim.Millisecond, func() {
		enter()
		// Re-acquire shared while this grant callback runs: the lock is
		// admissible for readers, so the seed semaphore granted (and
		// nested) immediately.
		l.Acquire(spuB, true, sim.Millisecond, func() {
			enter()
			reGrantAt = eng.Now()
			depth--
		})
		depth--
	})
	eng.Run()
	if maxDepth != 1 {
		t.Fatalf("grant callbacks nested to depth %d, want 1", maxDepth)
	}
	// Sequencing must not delay the re-acquire: it is granted in the
	// next drain round at the same instant the outer grant ran.
	if reGrantAt != 10*sim.Millisecond {
		t.Fatalf("re-acquire granted at %v, want 10ms (same instant, next round)", reGrantAt)
	}
}

// The seed semaphore popped its queue with s.queue = s.queue[1:], which
// keeps every dead waiter reachable in the backing array — sustained
// contention grew memory without bound. The compacting dequeue bounds
// the backing array and, once warm, stops allocating entirely.
func TestSustainedContentionBoundedQueueMemory(t *testing.T) {
	eng := sim.NewEngine()
	l := New(eng, "t", Mutex)
	const hold = sim.Millisecond
	// An arrival process matched to the service rate keeps the queue at
	// a steady ~64 waiters for 10k operations.
	for i := 0; i < 64; i++ {
		l.Acquire(spuA, false, hold, func() {})
	}
	n := 0
	tick := eng.Every(hold, "feed", func() {
		if n++; n <= 10_000 {
			l.Acquire(spuA, false, hold, func() {})
		}
	})
	eng.RunUntil(10_200 * hold)
	tick.Stop()
	eng.Run()
	if l.Acquisitions != 10_064 {
		t.Fatalf("acquisitions = %d", l.Acquisitions)
	}
	if c := cap(l.queue); c > 256 {
		t.Fatalf("queue backing array grew to %d for a ~64-deep queue", c)
	}
}

func TestDrainAllocFreeOnceWarm(t *testing.T) {
	eng := sim.NewEngine()
	l := New(eng, "t", Mutex)
	fn := func() {}
	// Warm the queue, batch scratch, per-SPU ledgers, and event pool.
	for i := 0; i < 64; i++ {
		l.Acquire(spuA, false, sim.Millisecond, fn)
	}
	eng.Run()
	if avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			l.Acquire(spuA, false, sim.Millisecond, fn)
		}
		eng.Run()
	}); avg != 0 {
		t.Fatalf("contended lock steady state allocates %v per window, want 0", avg)
	}
}

// MeanWait averages queueing delay over all acquisitions, so heavy
// uncontended traffic hides real stalls; MeanContendedWait reports the
// §3.4 "additional stall time" undiluted.
func TestMeanContendedWaitUndiluted(t *testing.T) {
	eng := sim.NewEngine()
	l := New(eng, "t", Mutex)
	l.Acquire(spuA, false, 100*sim.Millisecond, func() {})
	l.Acquire(spuB, false, sim.Millisecond, func() {}) // stalls 100 ms
	eng.Run()
	// 999 free grants spaced out after the contention clears.
	for i := 0; i < 999; i++ {
		l.Acquire(spuA, false, 0, func() {})
		eng.Run()
	}
	if l.MeanContendedWait() != 100*sim.Millisecond {
		t.Fatalf("MeanContendedWait = %v, want the full 100ms stall", l.MeanContendedWait())
	}
	if l.MeanWait() > 110*sim.Microsecond {
		t.Fatalf("MeanWait = %v; dilution gone? test premise broken", l.MeanWait())
	}
}

// All readers queued behind a writer are granted in one batch at the
// writer's release instant.
func TestReaderBatchBehindWriter(t *testing.T) {
	eng := sim.NewEngine()
	l := New(eng, "t", RW)
	l.Acquire(spuA, false, 10*sim.Millisecond, func() {})
	var grants []sim.Time
	for i := 0; i < 5; i++ {
		l.Acquire(spuB, true, sim.Millisecond, func() { grants = append(grants, eng.Now()) })
	}
	eng.Run()
	if len(grants) != 5 {
		t.Fatalf("granted %d readers", len(grants))
	}
	for i, g := range grants {
		if g != 10*sim.Millisecond {
			t.Fatalf("reader %d granted at %v, want batched at 10ms", i, g)
		}
	}
}

// A queued writer is FIFO-protected from later readers: the reader
// stream behind it cannot leapfrog, so the writer is granted as soon as
// the pre-existing readers release.
func TestWriterNotStarvedByReaderStream(t *testing.T) {
	eng := sim.NewEngine()
	l := New(eng, "t", RW)
	l.Acquire(spuA, true, 10*sim.Millisecond, func() {})
	var writerAt sim.Time = -1
	l.Acquire(spuB, false, sim.Millisecond, func() { writerAt = eng.Now() })
	// Readers keep arriving every 2 ms while the writer is queued.
	for i := 0; i < 20; i++ {
		eng.After(sim.Time(i)*2*sim.Millisecond, "reader", func() {
			l.Acquire(spuA, true, sim.Millisecond, func() {})
		})
	}
	eng.Run()
	if writerAt != 10*sim.Millisecond {
		t.Fatalf("writer granted at %v, want 10ms (no reader leapfrogging)", writerAt)
	}
}

// Zero-hold acquisitions release at the grant instant, both on the fast
// path and through the queue.
func TestZeroHoldAcquisitions(t *testing.T) {
	eng := sim.NewEngine()
	l := New(eng, "t", Mutex)
	l.Acquire(spuA, false, 0, func() {})
	l.Acquire(spuB, false, 10*sim.Millisecond, func() {})
	l.Acquire(spuA, false, 0, func() {})
	eng.Run()
	if r, w := l.Holders(); r != 0 || w {
		t.Fatalf("holders after quiesce: readers=%d writer=%t", r, w)
	}
	if l.QueueLen() != 0 {
		t.Fatal("queue not drained")
	}
	if err := l.Audit(); err != nil {
		t.Fatal(err)
	}
}

// Cross-SPU queueing delay lands in the interference matrix as
// Lock-resource theft blamed on the holder at enqueue time; same-SPU
// delay is self-interference and is dropped.
func TestContendedWaitFeedsInterferenceMatrix(t *testing.T) {
	eng := sim.NewEngine()
	p := profile.New(eng)
	l := New(eng, "t", Mutex)
	l.SetProfile(p)
	l.Acquire(spuA, false, 10*sim.Millisecond, func() {})
	l.Acquire(spuB, false, sim.Millisecond, func() {}) // victim of A
	l.Acquire(spuA, false, sim.Millisecond, func() {}) // self-wait, dropped
	eng.Run()
	if got := p.Stolen(spuB, spuA, profile.Lock); got != 10*sim.Millisecond {
		t.Fatalf("lock theft B<-A = %v, want 10ms", got)
	}
	if got := p.StolenFrom(spuA, profile.Lock); got != 0 {
		t.Fatalf("self-interference charged: %v", got)
	}
}

func TestPerSPULedgersAndAudit(t *testing.T) {
	eng := sim.NewEngine()
	l := New(eng, "t", RW)
	l.Acquire(spuA, true, 5*sim.Millisecond, func() {})
	l.Acquire(spuB, true, 5*sim.Millisecond, func() {})
	l.Acquire(spuC, false, sim.Millisecond, func() {})
	eng.Run()
	if l.AcquisitionsBySPU(spuA) != 1 || l.AcquisitionsBySPU(spuB) != 1 || l.AcquisitionsBySPU(spuC) != 1 {
		t.Fatal("per-SPU acquisition ledger wrong")
	}
	if l.WaitBySPU(spuC) != 5*sim.Millisecond {
		t.Fatalf("writer waited %v behind the readers, want 5ms", l.WaitBySPU(spuC))
	}
	if l.HoldBySPU(spuA) != 5*sim.Millisecond {
		t.Fatalf("hold ledger = %v", l.HoldBySPU(spuA))
	}
	if err := l.Audit(); err != nil {
		t.Fatal(err)
	}
}

// The audit laws actually fire: corrupt each conserved quantity and the
// matching law reports it.
func TestAuditDetectsCorruption(t *testing.T) {
	mk := func() *Lock {
		eng := sim.NewEngine()
		l := New(eng, "t", RW)
		l.Acquire(spuA, true, sim.Millisecond, func() {})
		eng.Run()
		return l
	}
	cases := []struct {
		name    string
		corrupt func(l *Lock)
	}{
		{"holder accounting", func(l *Lock) { l.grants++ }},
		{"reader ledger", func(l *Lock) { l.readerSPUs = append(l.readerSPUs, spuB) }},
		{"contended bracket", func(l *Lock) { l.Contended = l.Acquisitions + 5 }},
		{"exclusion", func(l *Lock) {
			l.writer, l.readers = true, 1
			l.readerSPUs = []core.SPUID{spuA}
			l.grants += 2
		}},
		{"queue on unheld lock", func(l *Lock) { l.queue = append(l.queue, waiter{spu: spuB}) }},
		{"revocability", func(l *Lock) {
			l.writer = true
			l.grants++
			l.releaseDue = -1
		}},
		{"ledger conservation", func(l *Lock) { l.WaitTotal += sim.Second }},
		{"contended wait ceiling", func(l *Lock) { l.ContendedWait = l.WaitTotal + 1 }},
	}
	for _, c := range cases {
		l := mk()
		if err := l.Audit(); err != nil {
			t.Fatalf("%s: clean lock failed audit: %v", c.name, err)
		}
		c.corrupt(l)
		if err := l.Audit(); err == nil {
			t.Fatalf("%s: corruption not detected", c.name)
		}
	}
}

func TestMutexModeIgnoresShared(t *testing.T) {
	eng := sim.NewEngine()
	l := New(eng, "t", Mutex)
	var grants []sim.Time
	for i := 0; i < 2; i++ {
		l.Acquire(spuA, true, 10*sim.Millisecond, func() { grants = append(grants, eng.Now()) })
	}
	eng.Run()
	if grants[1] != 10*sim.Millisecond {
		t.Fatalf("mutex admitted concurrent shared holders: %v", grants)
	}
}

func TestQueueStats(t *testing.T) {
	eng := sim.NewEngine()
	l := New(eng, "t", Mutex)
	for i := 0; i < 4; i++ {
		l.Acquire(spuA, false, 10*sim.Millisecond, func() {})
	}
	if l.QueueLen() != 3 {
		t.Fatalf("queue len = %d", l.QueueLen())
	}
	eng.Run()
	if l.MaxQueueLen() != 3 {
		t.Fatalf("max queue len = %d", l.MaxQueueLen())
	}
	if l.MeanQueueLen() <= 0 {
		t.Fatal("time-weighted mean queue length not tracked")
	}
}
