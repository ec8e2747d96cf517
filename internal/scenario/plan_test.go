package scenario

import (
	"fmt"
	"strings"
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/disk"
	"perfiso/internal/kernel"
	"perfiso/internal/latency"
	"perfiso/internal/machine"
	"perfiso/internal/sim"
	"perfiso/internal/workload"
)

// uniprocessor makes start order observable: two equal compute jobs
// time-share its one CPU, and the one started first finishes first.
func uniprocessor() machine.Config {
	return machine.Config{Name: "uni", CPUs: 1, MemoryMB: 16, Disks: []disk.Params{disk.FastDisk()}}
}

func TestSpawnOrderIsHonoured(t *testing.T) {
	finished := func(spawn []int) (a, b sim.Time) {
		work := workload.ComputeParams{Total: 200 * sim.Millisecond, Chunk: 100 * sim.Millisecond, WSSPages: 10}
		r := Execute(Plan{
			Machine: uniprocessor(), Scheme: core.SMP,
			SPUs:  []SPU{{Name: "u"}},
			Jobs:  []Job{{Name: "a", Compute: &work}, {Name: "b", Compute: &work}},
			Spawn: spawn,
		})
		return r.Procs[0].Finished, r.Procs[1].Finished
	}
	if a, b := finished(nil); a >= b {
		t.Fatalf("build order: a finished at %v, b at %v; a started first", a, b)
	}
	if a, b := finished([]int{0, 1}); a >= b {
		t.Fatalf("spawn [0 1]: a finished at %v, b at %v", a, b)
	}
	if a, b := finished([]int{1, 0}); b >= a {
		t.Fatalf("spawn [1 0]: a finished at %v, b at %v; b started first", a, b)
	}
}

func TestUntilCensorsInFlightRequests(t *testing.T) {
	// Arrivals every 10 ms that each need 50 ms of CPU outrun four
	// CPUs, so requests are in flight when the horizon cuts the run;
	// the horizon falls between arrivals, so each has a nonzero age.
	srv := workload.OpenServerParams{
		Requests: 100, Mean: 10 * sim.Millisecond, Pattern: workload.Periodic,
		Service: 50 * sim.Millisecond,
		SLO:     latency.SLO{Threshold: 100 * sim.Millisecond, Target: 0.9},
	}
	r := Execute(Plan{
		Machine: machine.MemoryIsolation(), Scheme: core.PIso,
		Options: kernel.Options{LatencyWindow: 100 * sim.Millisecond},
		SPUs:    []SPU{{Name: "svc"}},
		Jobs:    []Job{{Name: "svc", Open: &srv}},
		Until:   505 * sim.Millisecond,
	})
	if r.End != 505*sim.Millisecond || r.Kernel.Engine().Now() != r.End {
		t.Fatalf("end %v, clock %v; want both at the 505ms horizon", r.End, r.Kernel.Engine().Now())
	}
	job := r.Servers[0]
	inflight := job.InFlight()
	if inflight == 0 {
		t.Fatal("no request in flight at the horizon; the test lost its point")
	}
	if got := job.Tracker().Censored(); got != int64(inflight) {
		t.Fatalf("censored %d requests, %d were in flight", got, inflight)
	}
}

func TestJobWithoutParametersPanics(t *testing.T) {
	r := Boot(Plan{Machine: machine.MemoryIsolation(), Scheme: core.PIso,
		SPUs: []SPU{{Name: "u"}}, Jobs: []Job{{Name: "nothing"}}})
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, `"nothing"`) {
			t.Fatalf("panic %q does not name the job", msg)
		}
	}()
	r.Start()
}

// Settings made between Boot and Start reach the processes' first
// steps: a 30 ms inode-lock hold stretches ten lookups past 300 ms.
func TestSettingsBetweenBootAndStartTakeEffect(t *testing.T) {
	makespan := func(hold sim.Time) sim.Time {
		lookups := workload.LookupParams{Lookups: 10, Think: sim.Millisecond}
		r := Boot(Plan{
			Machine: machine.MemoryIsolation(), Scheme: core.PIso,
			SPUs: []SPU{{Name: "u"}},
			Jobs: []Job{{Name: "md", Lookup: &lookups}},
		})
		if hold > 0 {
			r.Kernel.FS().LookupHold = hold
		}
		r.Start()
		return r.Finish()
	}
	if plain, held := makespan(0), makespan(30*sim.Millisecond); held < 300*sim.Millisecond || plain >= 300*sim.Millisecond {
		t.Fatalf("makespan %v with the default hold, %v with a 30ms hold", plain, held)
	}
}
