package kernel

import (
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/fs"
	"perfiso/internal/machine"
	"perfiso/internal/proc"
	"perfiso/internal/sim"
)

// steadyObservedKernel is steadyKernel with the self-observability layer
// attached.
func steadyObservedKernel() *Kernel {
	k := New(machine.MemoryIsolation(), core.PIso, Options{SimObs: true})
	k.NewSPU("u1", 1)
	k.NewSPU("u2", 1)
	k.Boot()
	for i, spu := range []core.SPUID{core.FirstUserID, core.FirstUserID + 1} {
		for j := 0; j < 3; j++ {
			name := []string{"a0", "a1", "a2", "b0", "b1", "b2"}[i*3+j]
			k.Spawn(proc.New(k, spu, name, proc.Loop(1_000_000,
				proc.Compute{D: 2 * sim.Millisecond},
			)))
		}
	}
	k.Engine().RunUntil(4 * sim.Second)
	return k
}

// TestSimObsOffZeroAlloc is the off-path guard the tentpole promises:
// with SimObs off (the default, as in steadyKernel) the telemetry layer
// is a nil observer and the steady-state dispatch chain still runs at
// exactly zero allocations — identical to TestKernelDispatchZeroAlloc,
// restated here so a future simobs change that sneaks an allocation into
// the disabled path fails a test named after it.
func TestSimObsOffZeroAlloc(t *testing.T) {
	k := steadyKernel()
	if k.Engine().Obs() != nil {
		t.Fatal("default kernel has an observer attached")
	}
	eng := k.Engine()
	if avg := testing.AllocsPerRun(50, func() {
		eng.RunUntil(eng.Now() + 100*sim.Millisecond)
	}); avg != 0 {
		t.Fatalf("disabled simobs adds %v allocs per 100 ms window, want 0", avg)
	}
}

// TestSimObsKernelReport runs an observed kernel and checks the report
// sees the kernel's own machinery: the periodic classes, the split-out
// auditor sweep, and a sane census total.
func TestSimObsKernelReport(t *testing.T) {
	k := steadyObservedKernel()
	r := k.SimObsReport("steady")
	if r == nil {
		t.Fatal("SimObsReport returned nil with SimObs on")
	}
	if r.Events == 0 || r.Events != k.Engine().Dispatched() {
		t.Fatalf("report events %d, engine dispatched %d", r.Events, k.Engine().Dispatched())
	}
	counts := map[string]uint64{}
	for _, c := range r.Classes {
		counts[c.Name] = c.Count
	}
	// 4 simulated seconds: 400 ticks and 400 auditor sweeps (10 ms each),
	// 40 policy runs, 8 flushes.
	if counts["kernel.tick"] != 400 {
		t.Fatalf("kernel.tick census = %d, want 400 (census: %v)", counts["kernel.tick"], counts)
	}
	if counts["auditor.sweep"] != 400 {
		t.Fatalf("auditor.sweep census = %d, want 400", counts["auditor.sweep"])
	}
	if counts["sched.slice"] == 0 {
		t.Fatal("no sched.slice events in census")
	}
	if counts["kernel.mempolicy"] != 40 || counts["kernel.bdflush"] != 8 {
		t.Fatalf("policy/flush census = %d/%d", counts["kernel.mempolicy"], counts["kernel.bdflush"])
	}
	if r.Queue.Pushes == 0 {
		t.Fatal("queue telemetry empty")
	}
}

// TestSimObsResultsIdentical runs the same workload observed and dark
// and requires identical simulation outcomes — the observer must be
// read-only with respect to simulated time.
func TestSimObsResultsIdentical(t *testing.T) {
	run := func(obs bool) (sim.Time, uint64, float64) {
		k := New(machine.MemoryIsolation(), core.PIso, Options{SimObs: obs})
		u1 := k.NewSPU("u1", 1)
		k.NewSPU("u2", 2)
		k.Boot()
		k.Spawn(proc.New(k, core.FirstUserID, "a", proc.Loop(200,
			proc.Compute{D: 2 * sim.Millisecond},
		)))
		k.Spawn(proc.New(k, core.FirstUserID+1, "b", proc.Loop(100,
			proc.Compute{D: 1 * sim.Millisecond},
		)))
		k.Run()
		return k.Engine().Now(), k.Engine().Dispatched(), u1.Used(core.CPU)
	}
	nowOff, evOff, cpuOff := run(false)
	nowOn, evOn, cpuOn := run(true)
	if nowOff != nowOn {
		t.Fatalf("final time differs: off %v, on %v", nowOff, nowOn)
	}
	if cpuOff != cpuOn {
		t.Fatalf("CPU accounting differs: off %v, on %v", cpuOff, cpuOn)
	}
	// The observed run splits the coalesced tick+audit into two events,
	// so the dispatched count is higher — by exactly the sweep count.
	if evOn <= evOff {
		t.Fatalf("observed run dispatched %d <= dark run %d", evOn, evOff)
	}
}

// TestSimObsDiskCensus checks the census counts every disk completion
// of a two-disk machine doing real I/O under one "disk.complete" class:
// with request merging off and no faults, each completion is one
// completed request.
func TestSimObsDiskCensus(t *testing.T) {
	k := New(machine.CPUIsolation(), core.PIso, Options{SimObs: true})
	u1 := k.NewSPU("u1", 1)
	u2 := k.NewSPU("u2", 1)
	k.SetAffinity(u1.ID(), 0)
	k.SetAffinity(u2.ID(), 1)
	k.Boot()
	for i, u := range []core.SPUID{u1.ID(), u2.ID()} {
		f := k.AffinityAllocator(u).NewFile("data", 256*1024, fs.Contiguous, 0)
		k.Spawn(proc.New(k, u, []string{"r1", "r2"}[i], proc.Loop(50,
			proc.Read{File: f, Off: 0, N: 64 * 1024},
		)))
	}
	k.Run()
	var requests int64
	for i := 0; i < k.NumDisks(); i++ {
		if k.Disk(i).Total.Requests == 0 {
			t.Fatalf("disk %d served no requests", i)
		}
		requests += k.Disk(i).Total.Requests
	}
	var census uint64
	for _, c := range k.SimObsReport("two-disk").Classes {
		if c.Module == "disk" {
			if c.Name != "disk.complete" {
				t.Fatalf("unexpected disk class %q", c.Name)
			}
			census += c.Count
		}
	}
	if census != uint64(requests) {
		t.Fatalf("disk.complete census = %d, disks completed %d requests", census, requests)
	}
}
