package experiment

import (
	"testing"
)

// §3.3: a tiny threshold behaves like round-robin (good isolation for
// the small copy); a huge one behaves like position-only scheduling
// (small copy locked out).
func TestAblationBWThresholdTradeoff(t *testing.T) {
	r := RunAblationBWThreshold([]float64{1, 256, 1 << 30})
	// Points are in sweep order: thresholds 1, 256, 1<<30.
	smallTiny, smallHuge := r.Small.Points[0].Y, r.Small.Points[2].Y
	if smallTiny >= smallHuge {
		t.Errorf("small copy: tiny threshold %.2fs should beat huge %.2fs", smallTiny, smallHuge)
	}
	// A huge threshold should approach position-only behaviour: big copy
	// fastest there.
	bigTiny, bigHuge := r.Big.Points[0].Y, r.Big.Points[2].Y
	if bigHuge > bigTiny {
		t.Errorf("big copy: huge threshold %.2fs should not be slower than tiny %.2fs", bigHuge, bigTiny)
	}
	if r.Table().NumRows() != 3 {
		t.Fatal("table rows")
	}
}

// §3.2: shrinking the reserve lends more (borrower gets faster or at
// least no slower); the sweep must produce sane values everywhere.
func TestAblationReserveSweep(t *testing.T) {
	r := RunAblationReserve([]float64{0.02, 0.08, 0.25})
	if len(r.SPU1.Points) != 3 || len(r.SPU2.Points) != 3 {
		t.Fatal("missing points")
	}
	for _, p := range append(r.SPU1.Points, r.SPU2.Points...) {
		if p.Y <= 0 {
			t.Fatalf("non-positive response at reserve %.2f", p.X)
		}
	}
	// With a 25% reserve much less memory is lendable than with 2%:
	// the borrower must not be faster under the big reserve.
	lo, hi := r.SPU2.Points[0].Y, r.SPU2.Points[2].Y // reserves 0.02 and 0.25
	if hi < lo*0.98 {
		t.Errorf("borrower faster with big reserve (%.2fs) than small (%.2fs)", hi, lo)
	}
	if r.Table().NumRows() != 3 {
		t.Fatal("table rows")
	}
}

// §3.4: the readers-writer inode lock beats the mutex under concurrent
// lookups, in both contention and makespan.
func TestAblationInodeLock(t *testing.T) {
	r := RunAblationInodeLock()
	if r.RWResp >= r.MutexResp {
		t.Errorf("rw lock makespan %v not better than mutex %v", r.RWResp, r.MutexResp)
	}
	if r.RWWait >= r.MutexWait {
		t.Errorf("rw lock wait %v not below mutex %v", r.RWWait, r.MutexWait)
	}
	if r.Table().NumRows() != 2 {
		t.Fatal("table rows")
	}
}

// §3.1: IPI revocation returns loaned CPUs immediately, so the lender
// (Ocean) is at least as fast as with tick revocation, and the
// borrowers pay at most a small cost.
func TestAblationRevocation(t *testing.T) {
	r := RunAblationRevocation()
	if r.IPIOcean > r.TickOcean {
		t.Errorf("IPI Ocean %v slower than tick %v", r.IPIOcean, r.TickOcean)
	}
	if float64(r.IPIEda) > 1.15*float64(r.TickEda) {
		t.Errorf("IPI cost to borrowers too high: %v vs %v", r.IPIEda, r.TickEda)
	}
	if r.Table().NumRows() != 2 {
		t.Fatal("table rows")
	}
}

// §5 extension: the fairness policy rescues the light sender on a
// flooded link at a bounded cost to the flooder.
func TestAblationNetwork(t *testing.T) {
	r := RunAblationNetwork()
	if r.FairLight >= r.FCFSLight {
		t.Errorf("Fair light %v not better than FCFS %v", r.FairLight, r.FCFSLight)
	}
	if float64(r.FairLight) > 0.25*float64(r.FCFSLight) {
		t.Errorf("Fair light %v should be far below FCFS %v", r.FairLight, r.FCFSLight)
	}
	if float64(r.FairHeavy) > 1.2*float64(r.FCFSHeavy) {
		t.Errorf("flooder cost too high: %v vs %v", r.FairHeavy, r.FCFSHeavy)
	}
	if r.Table().NumRows() != 2 {
		t.Fatal("table rows")
	}
}
