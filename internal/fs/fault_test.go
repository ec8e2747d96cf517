package fs

import (
	"testing"

	"perfiso/internal/sim"
)

func TestReadRetriesFailedTransfersWithBackoff(t *testing.T) {
	r := newRig(1000)
	f := r.al.NewFile("f", 64*1024, Contiguous, 0)
	r.d.SetFault(1.0, sim.NewRNG(3).Fork()) // every transfer fails
	done := sim.Time(-1)
	r.fs.Read(spuA, f, 0, 16*1024, func() { done = r.eng.Now() })
	// Heal the disk after 100 ms; the read must complete via retries.
	r.eng.After(100*sim.Millisecond, "heal", func() { r.d.SetFault(0, nil) })
	r.eng.Run()
	if done < 0 {
		t.Fatal("read never completed after the disk healed")
	}
	if done < 100*sim.Millisecond {
		t.Fatalf("read completed at %v while the disk was still failing", done)
	}
	if r.fs.Stat.Retries == 0 {
		t.Fatal("no retries recorded")
	}
	if r.d.Total.Failures == 0 {
		t.Fatal("disk recorded no failures")
	}
}

func TestMetaUpdateRetriesFailedWrite(t *testing.T) {
	r := newRig(1000)
	f := r.al.NewFile("f", 64*1024, Contiguous, 0)
	r.d.SetFault(1.0, sim.NewRNG(4).Fork())
	done := sim.Time(-1)
	r.fs.MetaUpdate(spuA, f, func() { done = r.eng.Now() })
	r.eng.After(50*sim.Millisecond, "heal", func() { r.d.SetFault(0, nil) })
	r.eng.Run()
	if done < 50*sim.Millisecond {
		t.Fatalf("meta write done at %v, want after the disk healed", done)
	}
	if r.fs.Stat.Retries == 0 {
		t.Fatal("no retries recorded")
	}
}

func TestFlushRetriesUntilCleanPagesStayConsistent(t *testing.T) {
	r := newRig(1000)
	f := r.al.NewFile("f", 64*1024, Contiguous, 0)
	r.fs.Write(spuA, f, 0, 32*1024, func() {})
	r.eng.Run()
	dirtyBefore := r.fs.DirtyPages()
	if dirtyBefore == 0 {
		t.Fatal("delayed write left nothing dirty")
	}
	r.d.SetFault(1.0, sim.NewRNG(5).Fork())
	r.fs.Flush()
	r.eng.After(60*sim.Millisecond, "heal", func() { r.d.SetFault(0, nil) })
	r.eng.Run()
	if got := r.fs.DirtyPages(); got != 0 {
		t.Fatalf("%d pages still dirty after flush retries", got)
	}
	if r.fs.Stat.Retries == 0 {
		t.Fatal("no retries recorded")
	}
}
