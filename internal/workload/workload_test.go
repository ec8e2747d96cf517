package workload

import (
	"fmt"
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/kernel"
	"perfiso/internal/machine"
	"perfiso/internal/proc"
	"perfiso/internal/sim"
)

func boot(scheme core.Scheme, nSPU int) (*kernel.Kernel, []*core.SPU) {
	return bootOpts(scheme, nSPU, false)
}

func bootOpts(scheme core.Scheme, nSPU int, ipi bool) (*kernel.Kernel, []*core.SPU) {
	k := kernel.New(machine.Pmake8(), scheme, kernel.Options{IPIRevoke: ipi})
	var us []*core.SPU
	for i := 0; i < nSPU; i++ {
		us = append(us, k.NewSPU("u", 1))
	}
	k.Boot()
	return k, us
}

func TestPmakeJobCompletes(t *testing.T) {
	k, us := boot(core.PIso, 1)
	job := Pmake(k, us[0].ID(), "job", DefaultPmake())
	k.Spawn(job)
	end := k.Run()
	if job.State() != proc.Exited {
		t.Fatal("pmake did not finish")
	}
	// Two compiles x 8 files x 150ms = 2.4s of CPU; with 8 CPUs the two
	// compiles run in parallel: response roughly 1.2s + IO.
	if end < 1200*sim.Millisecond || end > 3*sim.Second {
		t.Fatalf("pmake response %v outside plausible window", end)
	}
	// The workload must actually exercise the disk (scattered reads,
	// delayed writes, metadata).
	if k.FS().Stat.MetaWrites != 16 {
		t.Fatalf("meta writes = %d, want 16", k.FS().Stat.MetaWrites)
	}
	if k.FS().Stat.ReadReqs == 0 {
		t.Fatal("no disk reads")
	}
}

func TestPmakeRejectsZeroParallel(t *testing.T) {
	k, us := boot(core.PIso, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Pmake(k, us[0].ID(), "bad", PmakeParams{})
}

func TestCopyJobStreamsWholeFile(t *testing.T) {
	k := kernel.New(machine.DiskIsolation(), core.PIso, kernel.Options{})
	s := k.NewSPU("u", 1)
	k.Boot()
	p := DefaultCopy(2 * 1024 * 1024) // 2 MB
	job := Copy(k, s.ID(), "cp", p)
	k.Spawn(job)
	k.Run()
	if job.State() != proc.Exited {
		t.Fatal("copy did not finish")
	}
	// All source data must have been read from disk (cold cache): 2 MB
	// = 4096 sectors at least.
	st := k.Disk(0).PerSPU[s.ID()]
	if st == nil || st.Sectors < 4096 {
		t.Fatalf("read sectors = %v, want >= 4096", st)
	}
	// Destination data is written back by the flusher under shared SPU.
	if sh := k.Disk(0).PerSPU[core.SharedID]; sh == nil || sh.Sectors < 2048 {
		t.Fatalf("shared write-back sectors missing: %v", sh)
	}
}

// A copy's files live on its SPU's affinity disk: pinned to disk 1 of
// a two-disk machine, it reads and writes only disk 1.
func TestCopyUsesAffinityDisk(t *testing.T) {
	k := kernel.New(machine.CPUIsolation(), core.PIso, kernel.Options{})
	s := k.NewSPU("u", 1)
	k.SetAffinity(s.ID(), 1)
	k.Boot()
	job := Copy(k, s.ID(), "cp", DefaultCopy(8*1024*1024)) // outlasts one flush period
	k.Spawn(job)
	k.Run()
	if job.State() != proc.Exited {
		t.Fatal("copy did not finish")
	}
	if n := k.Disk(0).Total.Requests; n != 0 {
		t.Fatalf("disk 0 served %d requests; the copy belongs on disk 1", n)
	}
	if st := k.Disk(1).PerSPU[s.ID()]; st == nil || st.Sectors < 16384 {
		t.Fatalf("disk 1 read sectors = %v, want >= 16384", st)
	}
	if sh := k.Disk(1).PerSPU[core.SharedID]; sh == nil || sh.Sectors < 2048 {
		t.Fatalf("disk 1 shared write-back sectors missing: %v", sh)
	}
}

// A CopyParams literal with only Bytes set runs the same copy as
// DefaultCopy: the chunk size and per-chunk CPU are constants, so no
// zero chunk can keep Copy's build loop from advancing.
func TestCopyLiteralMatchesDefaultCopy(t *testing.T) {
	run := func(p CopyParams) string {
		k := kernel.New(machine.DiskIsolation(), core.PIso, kernel.Options{})
		s := k.NewSPU("u", 1)
		k.Boot()
		job := Copy(k, s.ID(), "cp", p)
		k.Spawn(job)
		end := k.Run()
		if job.State() != proc.Exited {
			t.Fatal("copy did not finish")
		}
		return fmt.Sprintf("end %v, disk %+v", end, k.Disk(0).Total)
	}
	lit, def := run(CopyParams{Bytes: 1 << 20}), run(DefaultCopy(1<<20))
	if lit != def {
		t.Fatalf("literal copy: %s\nDefaultCopy: %s", lit, def)
	}
}

func TestOceanGangFinishesTogether(t *testing.T) {
	k, us := boot(core.PIso, 1)
	p := DefaultOcean()
	p.Iterations = 10
	var exits []sim.Time
	job := Ocean(k, us[0].ID(), "ocean", p)
	job.OnExit = func(*proc.Process) { exits = append(exits, k.Engine().Now()) }
	k.Spawn(job)
	k.Run()
	if job.State() != proc.Exited {
		t.Fatal("ocean did not finish")
	}
	// 10 iterations x ~100ms grain on idle CPUs = ~1s + fault time.
	rt := job.ResponseTime()
	if rt < sim.Second || rt > 1500*sim.Millisecond {
		t.Fatalf("ocean response %v outside [1s, 1.5s]", rt)
	}
}

func TestOceanGangScheduled(t *testing.T) {
	// With gang scheduling on, the Ocean gang still completes and the
	// scheduler records whole-gang placements.
	k, us := boot(core.PIso, 2) // 4 CPUs per SPU
	p := DefaultOcean()
	p.Iterations = 5
	p.GangScheduled = true
	job := Ocean(k, us[0].ID(), "ocean", p)
	k.Spawn(job)
	k.Run()
	if job.State() != proc.Exited {
		t.Fatal("gang-scheduled ocean did not finish")
	}
	if k.Scheduler().Stat.GangPlacements < 5 {
		t.Fatalf("gang placements = %d, want >= one per iteration",
			k.Scheduler().Stat.GangPlacements)
	}
}

func TestGangSchedulingBoundsInterferenceSkew(t *testing.T) {
	// Gang scheduling's point: under timesharing interference within the
	// same SPU, a co-scheduled gang's barrier phases stay aligned, so
	// per-iteration time tracks the gang's own grain rather than the
	// skew of individually-scheduled members.
	run := func(gang bool) sim.Time {
		k, us := boot(core.PIso, 2)
		p := DefaultOcean()
		p.Procs = 4
		p.Iterations = 10
		p.GangScheduled = gang
		job := Ocean(k, us[0].ID(), "ocean", p)
		k.Spawn(job)
		// Interference inside the same SPU: two extra CPU hogs.
		for i := 0; i < 2; i++ {
			hog := ComputeBound(k, us[0].ID(), "hog", ComputeParams{
				Total: 20 * sim.Second, Chunk: 100 * sim.Millisecond, WSSPages: 10})
			k.Spawn(hog)
		}
		k.Run()
		return job.ResponseTime()
	}
	plain := run(false)
	ganged := run(true)
	if ganged <= 0 || plain <= 0 {
		t.Fatal("runs did not complete")
	}
	// Both must finish; gang scheduling should not be catastrophically
	// worse (it trades hog throughput for gang alignment).
	if float64(ganged) > 1.5*float64(plain) {
		t.Fatalf("gang scheduling made ocean much slower: %v vs %v", ganged, plain)
	}
}

func TestComputeBoundDemand(t *testing.T) {
	k, us := boot(core.PIso, 1)
	p := DefaultVCS()
	job := ComputeBound(k, us[0].ID(), "vcs", p)
	k.Spawn(job)
	k.Run()
	got := job.Thread().CPUTime
	if got != p.Total {
		t.Fatalf("CPU consumed %v, want %v", got, p.Total)
	}
}

func TestFlashliteLongerThanVCS(t *testing.T) {
	if DefaultFlashlite().Total <= DefaultVCS().Total {
		t.Fatal("workload shapes: Flashlite should outlast VCS")
	}
}

func TestMemPmakeFitsOneJobPerSPUOn16MB(t *testing.T) {
	// One job: 4 compiles x 280 pages = 1120 anon pages, below the
	// 1536-page half of the 16 MB machine (§4.4's "memory is enough to
	// run one job in each SPU").
	p := MemPmake()
	if p.Parallel*p.WSSPages >= 1536 {
		t.Fatalf("one job (%d pages) must fit one SPU's share", p.Parallel*p.WSSPages)
	}
	// Two jobs must not fit ("leads to memory pressure in a SPU with
	// two jobs").
	if 2*p.Parallel*p.WSSPages <= 1536 {
		t.Fatal("two jobs should exceed one SPU's share")
	}
}

func TestSizePages(t *testing.T) {
	if SizePages(4096) != 1 || SizePages(4097) != 2 || SizePages(1) != 1 {
		t.Fatal("SizePages rounding")
	}
}

func TestPmakeDeterministicAcrossRuns(t *testing.T) {
	run := func() sim.Time {
		k, us := boot(core.PIso, 1)
		job := Pmake(k, us[0].ID(), "job", DefaultPmake())
		k.Spawn(job)
		k.Run()
		return job.ResponseTime()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("identical runs diverged: %v vs %v", a, b)
	}
}

// A generated ComputeBound program hands out the one boxed Compute at
// every chunk, and each step's profiler span has a constant name, so a
// profiled hog steps through its bursts without allocating. A generator
// that built a fresh proc.Compute per chunk, or a span name built per
// step, would allocate at every step.
func TestComputeBoundStepsAllocateNothing(t *testing.T) {
	k := kernel.New(machine.Pmake8(), core.PIso, kernel.Options{Profiled: true})
	u := k.NewSPU("u", 1)
	k.Boot()
	hog := ComputeParams{Total: 200 * sim.Second, Chunk: 5 * sim.Millisecond, WSSPages: 50}
	for _, name := range []string{"hog0", "hog1", "hog2", "hog3"} {
		k.Spawn(ComputeBound(k, u.ID(), name, hog))
	}
	eng := k.Engine()
	eng.RunUntil(2 * sim.Second)
	ran := k.Scheduler().CPUTime(u.ID())
	if avg := testing.AllocsPerRun(20, func() {
		eng.RunUntil(eng.Now() + 100*sim.Millisecond)
	}); avg != 0 {
		t.Fatalf("stepping generated compute-bound programs allocates %v times per 100 ms", avg)
	}
	if k.Scheduler().CPUTime(u.ID())-ran < sim.Second {
		t.Fatal("the hogs barely ran in the measured windows")
	}
}
