package kernel

import (
	"fmt"
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/fs"
	"perfiso/internal/machine"
	"perfiso/internal/proc"
	"perfiso/internal/sim"
)

func smallMachine() machine.Config {
	cfg := machine.MemoryIsolation() // 4 CPUs, 16 MB, 2 fast disks
	return cfg
}

func TestBootAndRunEmpty(t *testing.T) {
	k := New(smallMachine(), core.PIso, Options{})
	k.NewSPU("u1", 1)
	k.Boot()
	p := proc.New(k, core.FirstUserID, "hello", []proc.Step{proc.Compute{D: 10 * sim.Millisecond}})
	k.Spawn(p)
	end := k.Run()
	if end < 10*sim.Millisecond {
		t.Fatalf("finished at %v", end)
	}
	if p.State() != proc.Exited {
		t.Fatal("process did not exit")
	}
}

func TestRunBeforeBootPanics(t *testing.T) {
	k := New(smallMachine(), core.PIso, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.Run()
}

func TestSpawnBeforeBootPanics(t *testing.T) {
	k := New(smallMachine(), core.PIso, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.Spawn(proc.New(k, core.FirstUserID, "x", nil))
}

func TestDoubleBootPanics(t *testing.T) {
	k := New(smallMachine(), core.PIso, Options{})
	k.Boot()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.Boot()
}

func TestSchemeSelectsDiskScheduler(t *testing.T) {
	cases := map[core.Scheme]string{
		core.SMP:  "Pos",
		core.Quo:  "Iso",
		core.PIso: "PIso",
	}
	for scheme, want := range cases {
		k := New(smallMachine(), scheme, Options{})
		if got := k.Disk(0).Scheduler().Name(); got != want {
			t.Errorf("scheme %v: disk scheduler %q, want %q", scheme, got, want)
		}
	}
}

func TestDiskSchedOverride(t *testing.T) {
	k := New(smallMachine(), core.PIso, Options{DiskSched: "Pos"})
	if k.Disk(0).Scheduler().Name() != "Pos" {
		t.Fatal("override ignored")
	}
}

func TestUnknownDiskSchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(smallMachine(), core.PIso, Options{DiskSched: "elevator"})
}

func TestSchemeSetsSPUPolicy(t *testing.T) {
	k := New(smallMachine(), core.Quo, Options{})
	s := k.NewSPU("u", 1)
	if s.Policy() != core.ShareNone {
		t.Fatal("Quo SPU should be ShareNone")
	}
}

func TestInodeMutexOption(t *testing.T) {
	k := New(smallMachine(), core.PIso, Options{InodeMutex: true})
	if k.FS().RootInode.Mode() != fs.SemMutex {
		t.Fatal("InodeMutex option ignored")
	}
	k2 := New(smallMachine(), core.PIso, Options{})
	if k2.FS().RootInode.Mode() != fs.SemRW {
		t.Fatal("default inode lock should be readers-writer (the fixed kernel)")
	}
}

func TestKernelMemoryChargedAtBoot(t *testing.T) {
	k := New(smallMachine(), core.PIso, Options{})
	if got := k.SPUs().Kernel().Used(core.Memory); got != 1024 { // 4 MB
		t.Fatalf("kernel pages = %g, want 1024", got)
	}
}

func TestEntitlementsExcludeKernelMemory(t *testing.T) {
	k := New(smallMachine(), core.PIso, Options{})
	a := k.NewSPU("a", 1)
	b := k.NewSPU("b", 1)
	k.Boot()
	// 16 MB = 4096 pages, minus 1024 kernel pages = 3072, split 2 ways.
	if a.Entitled(core.Memory) != 1536 || b.Entitled(core.Memory) != 1536 {
		t.Fatalf("entitled = %g, %g", a.Entitled(core.Memory), b.Entitled(core.Memory))
	}
}

func TestAffinityDefaultsRoundRobin(t *testing.T) {
	k := New(smallMachine(), core.PIso, Options{}) // 2 disks
	a := k.NewSPU("a", 1)
	b := k.NewSPU("b", 1)
	c := k.NewSPU("c", 1)
	if k.AffinityDisk(a.ID()) != k.Disk(0) || k.AffinityDisk(b.ID()) != k.Disk(1) || k.AffinityDisk(c.ID()) != k.Disk(0) {
		t.Fatal("round-robin affinity wrong")
	}
	k.SetAffinity(c.ID(), 1)
	if k.AffinityDisk(c.ID()) != k.Disk(1) {
		t.Fatal("SetAffinity ignored")
	}
}

// The experiment, soak and pisosim plans pin no disks: each relies on
// SPU i landing on disk i mod disks, which is what their explicit
// affinity calls used to spell out (one disk per SPU on Pmake8; spu1 on
// disk 0 and spu2 on disk 1 on the two-disk machines; every SPU on the
// disk-isolation machine's one shared disk).
func TestAffinityDefaultPerMachine(t *testing.T) {
	for _, cfg := range []machine.Config{
		machine.Pmake8(), machine.CPUIsolation(), machine.MemoryIsolation(),
		machine.FaultIsolation(), machine.DiskIsolation(),
	} {
		k := New(cfg, core.PIso, Options{})
		for i := 0; i < len(cfg.Disks)+2; i++ {
			s := k.NewSPU(fmt.Sprintf("spu%d", i+1), 1)
			d := i % len(cfg.Disks)
			if k.AffinityDisk(s.ID()) != k.Disk(d) || k.AffinityAllocator(s.ID()) != k.Allocator(d) {
				t.Errorf("%s: SPU %d not on disk %d", cfg.Name, i, d)
			}
		}
	}
}

func TestSetAffinityOutOfRangePanics(t *testing.T) {
	k := New(smallMachine(), core.PIso, Options{})
	s := k.NewSPU("a", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.SetAffinity(s.ID(), 99)
}

func TestForkedTreeRunsToCompletion(t *testing.T) {
	k := New(smallMachine(), core.PIso, Options{})
	s := k.NewSPU("u", 1)
	k.Boot()
	al := k.AffinityAllocator(s.ID())
	f := al.NewFile("data", 256*1024, fs.Contiguous, 0)
	child := func(name string) *proc.Process {
		return proc.New(k, s.ID(), name, proc.Seq(
			[]proc.Step{proc.Touch{Pages: 50}},
			proc.Loop(3,
				proc.Lookup{},
				proc.Read{File: f, Off: 0, N: 64 * 1024},
				proc.Compute{D: 20 * sim.Millisecond},
				proc.Write{File: f, Off: 0, N: 16 * 1024},
				proc.Meta{File: f},
			),
		))
	}
	root := proc.New(k, s.ID(), "make", []proc.Step{
		proc.Fork{Child: child("cc1")},
		proc.Fork{Child: child("cc2")},
		proc.WaitChildren{},
	})
	k.Spawn(root)
	end := k.Run()
	if end <= 60*sim.Millisecond {
		t.Fatalf("tree finished suspiciously fast: %v", end)
	}
	if root.State() != proc.Exited {
		t.Fatal("root did not exit")
	}
	if k.FS().Stat.MetaWrites != 6 {
		t.Fatalf("meta writes = %d, want 6", k.FS().Stat.MetaWrites)
	}
}

func TestSwapInIssuesClusteredReads(t *testing.T) {
	k := New(smallMachine(), core.PIso, Options{})
	s := k.NewSPU("u", 1)
	k.Boot()
	var done bool
	k.SwapIn(s.ID(), 10, func() { done = true }) // 10 pages -> 3 requests
	// Pump the engine without processes: use the engine directly.
	k.Engine().RunUntil(k.Engine().Now() + sim.Second)
	if !done {
		t.Fatal("swap-in never completed")
	}
	st := k.Disk(0).PerSPU[s.ID()]
	if st == nil || st.Requests != 3 {
		t.Fatalf("swap-in requests = %v, want 3", st)
	}
	if done2 := false; true {
		k.SwapIn(s.ID(), 0, func() { done2 = true })
		if !done2 {
			t.Fatal("zero-page swap-in should complete synchronously")
		}
	}
}

func TestMemoryPressureEndToEnd(t *testing.T) {
	// Two Quo SPUs on the 16 MB machine; one runs a job whose working
	// set exceeds its quota and must swap; the other stays idle. Under
	// PIso the same job gets idle memory lent and swaps less.
	run := func(scheme core.Scheme) (sim.Time, int64) {
		k := New(smallMachine(), scheme, Options{})
		a := k.NewSPU("a", 1)
		k.NewSPU("b", 1)
		k.Boot()
		p := proc.New(k, a.ID(), "big", proc.Seq(
			[]proc.Step{proc.Touch{Pages: 2200}}, // > 1536 quota
			proc.Loop(10, proc.Compute{D: 10 * sim.Millisecond}),
		))
		k.Spawn(p)
		k.Run()
		return p.ResponseTime(), p.SwapIns
	}
	quoTime, quoSwaps := run(core.Quo)
	pisoTime, pisoSwaps := run(core.PIso)
	if quoSwaps == 0 {
		t.Fatal("Quo run never swapped despite oversized working set")
	}
	if pisoSwaps >= quoSwaps {
		t.Fatalf("PIso swapped as much as Quo (%d vs %d): lending broken", pisoSwaps, quoSwaps)
	}
	if pisoTime >= quoTime {
		t.Fatalf("PIso (%v) not faster than Quo (%v) under memory pressure", pisoTime, quoTime)
	}
}
