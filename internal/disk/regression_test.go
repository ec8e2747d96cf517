package disk

import (
	"testing"

	"perfiso/internal/sim"
)

// Regression: the track-buffer sequential hit (rot = 0 when a request
// continues exactly where the previous transfer ended) used to apply
// after arbitrarily long idle gaps, as if the drive's read-ahead buffer
// held data forever. It must only apply within about one rotation of
// the previous transfer finishing.
func TestTrackBufferHitExpiresAfterIdleGap(t *testing.T) {
	// Both requests live on cylinder 0 so the continuation pays no seek
	// and its service time is Overhead + rot + xfer exactly.
	run := func(gap sim.Time) (got, want sim.Time) {
		eng, d := newTestDisk(NewPos())
		var second *Request
		d.Submit(req(spuA, 1000, 8, nil))
		eng.Run()
		eng.After(gap, "resume-stream", func() {
			// The model's spindle position is a pure function of time,
			// so the full rotational delay the continuation *should*
			// pay is computable up front.
			settled := eng.Now() + d.params.Overhead
			want = d.params.RotationalDelay(settled, 1008)
			d.Submit(req(spuA, 1008, 8, func(r *Request) { second = r }))
		})
		eng.Run()
		if second == nil {
			t.Fatal("second request never completed")
		}
		return second.RotTime, want
	}

	// Immediate continuation: the track buffer absorbs the gap.
	if got, _ := run(0); got != 0 {
		t.Fatalf("back-to-back sequential request paid rotation %v, want 0", got)
	}
	// After a 1 s idle gap the buffered read-ahead is long gone: the
	// request must pay the real rotational delay again.
	got, want := run(sim.Second)
	if want == 0 {
		t.Fatal("test premise broken: chosen gap happens to need no rotation")
	}
	if got != want {
		t.Fatalf("after 1s idle gap rotation = %v, want %v (stale track-buffer hit)", got, want)
	}
}

// Regression: requests absorbed by tryMerge used to complete (their
// Done callbacks fired with Started/Finished copied from the host) but
// were never added to the Total/PerSPU Wait/Service samples or Requests
// counts, so latency percentiles undercounted under merging.
func TestMergeAbsorbedRequestStatsCounted(t *testing.T) {
	eng, d := newTestDisk(NewPos())
	d.Merge = true
	d.Submit(req(spuA, 500000, 8, nil)) // occupy the disk
	d.Submit(req(spuA, 1000, 8, nil))
	d.Submit(req(spuA, 1008, 8, nil)) // absorbed into the previous one
	if d.Total.Merges != 1 && d.QueueLen() != 1 {
		t.Fatalf("merge did not happen (queue %d)", d.QueueLen())
	}
	eng.Run()

	// 3 logical requests completed: all of them must appear in the
	// request counts and latency samples, even though only 2 transfers
	// were serviced.
	if d.Total.Requests != 3 {
		t.Fatalf("Total.Requests = %d, want 3 (absorbed request not counted)", d.Total.Requests)
	}
	if n := d.Total.Wait.N(); n != 3 {
		t.Fatalf("Total.Wait has %d samples, want 3", n)
	}
	if n := d.Total.Service.N(); n != 3 {
		t.Fatalf("Total.Service has %d samples, want 3", n)
	}
	s := d.PerSPU[spuA]
	if s == nil || s.Requests != 3 {
		t.Fatalf("PerSPU.Requests = %v, want 3", s)
	}
	if n := s.Wait.N(); n != 3 {
		t.Fatalf("PerSPU.Wait has %d samples, want 3", n)
	}
	// Sectors are counted once, via the host's grown transfer.
	if d.Total.Sectors != 8+16 {
		t.Fatalf("Total.Sectors = %d, want 24", d.Total.Sectors)
	}
}
