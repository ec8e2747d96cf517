package workload

import (
	"runtime"
	"strings"
	"testing"

	"perfiso/internal/control"
	"perfiso/internal/core"
	"perfiso/internal/kernel"
	"perfiso/internal/machine"
	"perfiso/internal/mem"
	"perfiso/internal/sim"
)

// An open server builds each handler when its arrival fires and keeps
// only a small record per request, so a completed run's live heap
// grows with the requests it served by a few dozen bytes each, not by
// the handler processes, steps and closures of every request.
func TestOpenServerHeapGrowsWithRequestsServed(t *testing.T) {
	liveAfter := func(requests int) uint64 {
		k, us := bootLatency(core.PIso, 1) // profiler off, latency on
		p := DefaultOpenServer()
		p.Requests = requests
		job := OpenServer(k, us[0].ID(), "svc", p)
		k.Spawn(job.Root)
		k.Run()
		if job.Completed() != requests {
			t.Fatalf("%d of %d requests completed", job.Completed(), requests)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(job)
		runtime.KeepAlive(k)
		return ms.HeapAlloc
	}
	const few, many = 500, 4000
	base := liveAfter(few)
	grown := liveAfter(many)
	perRequest := (float64(grown) - float64(base)) / (many - few)
	t.Logf("live heap %d B after %d requests, %d B after %d: %.1f B per extra request",
		base, few, grown, many, perRequest)
	if perRequest >= 100 {
		t.Fatalf("live heap grows %.0f B per extra request, want under 100", perRequest)
	}
}

// A run stopped mid-stream, with the controller shedding an overloaded
// tenant, accounts for every request exactly once: completed, in
// flight, not yet arrived, or shed. The in-flight ones are what
// CensorTail folds into the tracker, so the tracker's uncensored count
// is the completed one.
func TestOpenServerCountsBalanceAtHorizon(t *testing.T) {
	k := kernel.New(machine.Pmake8(), core.PIso, kernel.Options{
		LatencyWindow: 100 * sim.Millisecond,
		// A boost ceiling the hot tenant can reach beside one other SPU.
		Control: control.Config{Enabled: true, MaxBoost: 1.5},
	})
	hot, busy := k.NewSPU("hot", 1), k.NewSPU("busy", 1)
	k.Boot()
	p := DefaultOpenServer()
	p.Requests = 2000
	p.Mean = 2 * sim.Millisecond
	p.Service = 12 * sim.Millisecond // six CPUs of demand against a share of four
	p.ServiceJitter = 4 * sim.Millisecond
	job := OpenServer(k, hot.ID(), "hot", p)
	k.Spawn(job.Root)
	for i := 0; i < 8; i++ {
		k.Spawn(ComputeBound(k, busy.ID(), "hog", ComputeParams{
			Total: 10 * sim.Second, Chunk: 50 * sim.Millisecond, WSSPages: 10}))
	}
	horizon := 2500 * sim.Millisecond
	k.RunUntil(horizon)

	completed, inFlight, pending, shed := job.Completed(), job.InFlight(), job.Pending(), job.Shed()
	t.Logf("at %v: completed %d, in flight %d, pending %d, shed %d", horizon, completed, inFlight, pending, shed)
	if shed == 0 || inFlight == 0 || pending == 0 {
		t.Fatalf("completed=%d in-flight=%d pending=%d shed=%d: the scenario must shed, "+
			"strand requests and stop before the last arrival", completed, inFlight, pending, shed)
	}
	if sum := completed + inFlight + pending + shed; sum != p.Requests {
		t.Fatalf("completed %d + in-flight %d + pending %d + shed %d = %d, want %d",
			completed, inFlight, pending, shed, sum, p.Requests)
	}
	if n := job.CensorTail(horizon); n != inFlight {
		t.Fatalf("CensorTail folded %d requests, %d were in flight", n, inFlight)
	}
	tr := job.Tracker()
	if got := tr.Count() - tr.Censored(); got != int64(completed) {
		t.Fatalf("tracker holds %d uncensored observations, %d requests completed", got, completed)
	}
	if tr.Shed() != int64(shed) {
		t.Fatalf("tracker counted %d sheds, the job %d", tr.Shed(), shed)
	}
}

// The per-request read must lie inside the data file: a read larger
// than the file is refused when the server is built, naming it; a read
// of exactly the file starts at offset 0; and with no DataBytes the
// file is 4 MB.
func TestOpenServerReadBytesAgainstDataFile(t *testing.T) {
	cases := []struct {
		name      string
		read      int64
		data      int64
		wantPanic bool
	}{
		{"read larger than the file", 128 << 10, 64 << 10, true},
		{"read of the whole file", 64 << 10, 64 << 10, false},
		{"default 4 MB file, whole-file read", 4 << 20, 0, false},
		{"default 4 MB file, larger read", 4<<20 + 1, 0, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k, us := boot(core.PIso, 1)
			p := DefaultOpenServer()
			p.Requests = 5
			p.ReadBytes, p.DataBytes = c.read, c.data
			defer func() {
				r := recover()
				if c.wantPanic != (r != nil) {
					t.Fatalf("panic = %v, want a panic: %v", r, c.wantPanic)
				}
				if r != nil && !strings.Contains(r.(string), `"svc"`) {
					t.Fatalf("panic %q does not name the server", r)
				}
			}()
			job := OpenServer(k, us[0].ID(), "svc", p)
			k.Spawn(job.Root)
			end := k.Run()
			if job.Completed() != p.Requests {
				t.Fatalf("%d of %d requests completed", job.Completed(), p.Requests)
			}
			st := k.FS().Stat
			if got, want := st.Hits+st.Misses, int64(p.Requests)*c.read/mem.PageSize; got != want {
				t.Fatalf("%d pages looked up, want %d: every request reads the whole file", got, want)
			}
			if job.MaxLatency(end) <= p.Service {
				t.Fatal("reads took no time")
			}
		})
	}
}
