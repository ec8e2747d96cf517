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
