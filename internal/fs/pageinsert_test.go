package fs

import (
	"testing"

	"perfiso/internal/sim"
)

func TestPageInsertDefaultsAndReconfigure(t *testing.T) {
	r := newRig(1000)
	if r.fs.pageInsert.Len() != DefaultPageInsertStripes {
		t.Fatalf("default stripes = %d", r.fs.pageInsert.Len())
	}
	if n := newLockedRig(1000, 1, 1).fs.pageInsert.Len(); n != 1 {
		t.Fatalf("one stripe asked, %d made", n)
	}
	if n := newLockedRig(1000, 1, -1).fs.pageInsert.Len(); n != DefaultPageInsertStripes {
		t.Fatalf("negative stripes made %d, want the default", n)
	}
}

func TestPageInsertLockTakenOnInsertions(t *testing.T) {
	r := newRig(1000)
	f := r.al.NewFile("f", 64*1024, Contiguous, 0) // 16 pages
	r.fs.ReadAheadPages = 0
	r.fs.Read(spuA, f, 0, 64*1024, func() {})
	r.eng.Run()
	acq, _ := r.fs.PageInsertContention()
	if acq != 16 {
		t.Fatalf("insert-lock acquisitions = %d, want one per inserted page", acq)
	}
	// Warm reads insert nothing.
	r.fs.Read(spuA, f, 0, 64*1024, func() {})
	r.eng.Run()
	if acq2, _ := r.fs.PageInsertContention(); acq2 != acq {
		t.Fatal("warm read took the insert lock")
	}
}

func TestCoarsePageInsertLockContends(t *testing.T) {
	// With one stripe and a long hold, concurrent insertions from two
	// files queue on the lock; with many stripes they do not.
	run := func(stripes int) sim.Time {
		r := newLockedRig(4000, 1, stripes)
		r.fs.PageInsertHold = 500 * sim.Microsecond
		r.fs.ReadAheadPages = 0
		f1 := r.al.NewFile("f1", 256*1024, Contiguous, 0)
		f2 := r.al.NewFile("f2", 256*1024, Contiguous, 0)
		r.fs.Read(spuA, f1, 0, 256*1024, func() {})
		r.fs.Read(spuB, f2, 0, 256*1024, func() {})
		r.eng.Run()
		_, wait := r.fs.PageInsertContention()
		return wait
	}
	coarse := run(1)
	striped := run(64)
	if coarse <= striped {
		t.Fatalf("coarse lock wait %v not above striped %v", coarse, striped)
	}
	if coarse == 0 {
		t.Fatal("coarse lock saw no contention at all")
	}
}

func TestFileSeqDeterministic(t *testing.T) {
	r1 := newRig(100)
	r2 := newRig(100)
	a1 := r1.al.NewFile("x", 4096, Contiguous, 0)
	a2 := r2.al.NewFile("x", 4096, Contiguous, 0)
	if a1.seq != a2.seq {
		t.Fatal("file sequence numbers not reproducible")
	}
}
