package fs

import (
	"testing"

	"perfiso/internal/lock"
	"perfiso/internal/sim"
)

// The kernel semaphore is now backed by internal/lock; these tests pin
// the fs-visible semantics (grant timing, fairness, stats) through the
// same aliases fs exposes.

func TestSemaphoreUncontendedIsImmediate(t *testing.T) {
	eng := sim.NewEngine()
	s := lock.NewTable(eng, nil).NewLock("t", SemMutex)
	var got bool
	s.Acquire(spuA, false, sim.Millisecond, func() { got = true })
	if !got {
		t.Fatal("uncontended acquire should grant synchronously")
	}
	if s.Contended != 0 {
		t.Fatal("uncontended acquire counted as contended")
	}
}

func TestMutexSerializesEverything(t *testing.T) {
	eng := sim.NewEngine()
	s := lock.NewTable(eng, nil).NewLock("t", SemMutex)
	var grants []sim.Time
	for i := 0; i < 3; i++ {
		s.Acquire(spuA, true, 10*sim.Millisecond, func() { grants = append(grants, eng.Now()) })
	}
	eng.Run()
	want := []sim.Time{0, 10 * sim.Millisecond, 20 * sim.Millisecond}
	for i, w := range want {
		if grants[i] != w {
			t.Fatalf("grants = %v, want serialized %v (mutex mode ignores shared)", grants, want)
		}
	}
	if s.Contended != 2 {
		t.Fatalf("contended = %d", s.Contended)
	}
}

func TestRWAllowsConcurrentReaders(t *testing.T) {
	eng := sim.NewEngine()
	s := lock.NewTable(eng, nil).NewLock("t", SemRW)
	var grants []sim.Time
	for i := 0; i < 3; i++ {
		s.Acquire(spuA, true, 10*sim.Millisecond, func() { grants = append(grants, eng.Now()) })
	}
	eng.Run()
	for i, g := range grants {
		if g != 0 {
			t.Fatalf("reader %d granted at %v, want 0 (concurrent)", i, g)
		}
	}
}

func TestRWWriterExcludesReaders(t *testing.T) {
	eng := sim.NewEngine()
	s := lock.NewTable(eng, nil).NewLock("t", SemRW)
	var order []string
	s.Acquire(spuA, false, 10*sim.Millisecond, func() { order = append(order, "w") })
	s.Acquire(spuA, true, sim.Millisecond, func() { order = append(order, "r1") })
	s.Acquire(spuA, true, sim.Millisecond, func() { order = append(order, "r2") })
	eng.Run()
	if len(order) != 3 || order[0] != "w" {
		t.Fatalf("order = %v", order)
	}
	// Readers batch once the writer releases.
	if s.QueueLen() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestRWWriterNotStarvedByReaders(t *testing.T) {
	eng := sim.NewEngine()
	s := lock.NewTable(eng, nil).NewLock("t", SemRW)
	var writerAt sim.Time = -1
	s.Acquire(spuA, true, 10*sim.Millisecond, func() {})
	s.Acquire(spuA, false, sim.Millisecond, func() { writerAt = eng.Now() })
	// A reader arriving behind the queued writer must not jump it.
	var lateReaderAt sim.Time = -1
	s.Acquire(spuA, true, sim.Millisecond, func() { lateReaderAt = eng.Now() })
	eng.Run()
	if writerAt != 10*sim.Millisecond {
		t.Fatalf("writer at %v", writerAt)
	}
	if lateReaderAt < writerAt {
		t.Fatalf("late reader at %v jumped the writer at %v", lateReaderAt, writerAt)
	}
}

func TestSemaphoreWaitStats(t *testing.T) {
	eng := sim.NewEngine()
	s := lock.NewTable(eng, nil).NewLock("t", SemMutex)
	s.Acquire(spuA, false, 10*sim.Millisecond, func() {})
	s.Acquire(spuA, false, 10*sim.Millisecond, func() {})
	eng.Run()
	if s.MeanWait() != 5*sim.Millisecond { // (0 + 10ms)/2, diluted by the free grant
		t.Fatalf("MeanWait = %v", s.MeanWait())
	}
	if s.MeanContendedWait() != 10*sim.Millisecond { // the §3.4 stall, undiluted
		t.Fatalf("MeanContendedWait = %v", s.MeanContendedWait())
	}
	if s.Acquisitions != 2 {
		t.Fatalf("Acquisitions = %d", s.Acquisitions)
	}
}

func TestSemModeString(t *testing.T) {
	if SemMutex.String() != "mutex" || SemRW.String() != "rw" {
		t.Fatal("mode names")
	}
}

func TestLookupGoesThroughRootInode(t *testing.T) {
	r := newRig(100)
	var done int
	for i := 0; i < 4; i++ {
		r.fs.Lookup(spuA, func() { done++ })
	}
	r.eng.Run()
	if done != 4 {
		t.Fatalf("lookups completed = %d", done)
	}
	if r.fs.RootInode.Acquisitions != 4 {
		t.Fatalf("acquisitions = %d", r.fs.RootInode.Acquisitions)
	}
}

func TestInodeShardsRouteLookupsPrivately(t *testing.T) {
	r := newLockedRig(100, 2, 0)
	var done int
	r.fs.Lookup(spuA, func() { done++ })
	r.fs.Lookup(spuB, func() { done++ })
	r.eng.Run()
	if done != 2 {
		t.Fatalf("lookups completed = %d", done)
	}
	locks := r.fs.InodeLocks()
	if len(locks) != 2 {
		t.Fatalf("inode shards = %d", len(locks))
	}
	for i, l := range locks {
		if l.Acquisitions != 1 {
			t.Fatalf("shard %d acquisitions = %d, want 1 (per-SPU routing)", i, l.Acquisitions)
		}
	}
}

func TestMutexInodeSlowerThanRWUnderContention(t *testing.T) {
	// §3.4: with many concurrent lookups, the rw inode lock finishes
	// sooner than the mutex version.
	run := func(mode SemMode) sim.Time {
		eng := sim.NewEngine()
		s := lock.NewTable(eng, nil).NewLock("t", mode)
		var last sim.Time
		for i := 0; i < 50; i++ {
			s.Acquire(spuA, true, 100*sim.Microsecond, func() { last = eng.Now() })
		}
		eng.Run()
		return last
	}
	mutex, rw := run(SemMutex), run(SemRW)
	if rw >= mutex {
		t.Fatalf("rw lock (%v) not faster than mutex (%v) under read contention", rw, mutex)
	}
}
