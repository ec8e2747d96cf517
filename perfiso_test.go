package perfiso

import (
	"runtime"
	"strings"
	"testing"

	"perfiso/internal/experiment"
)

func TestQuickstartFlow(t *testing.T) {
	sys := New(MemIsolationMachine(), PIso, Options{})
	a := sys.NewSPU("a", 1)
	b := sys.NewSPU("b", 1)
	sys.SetAffinity(a.ID(), 0)
	sys.SetAffinity(b.ID(), 1)
	sys.Boot()
	j1 := sys.Pmake(a, "build", MemPmake())
	j2 := sys.Pmake(b, "build2", MemPmake())
	makespan := sys.Run()
	if makespan <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	if j1.ResponseTime() <= 0 || j2.ResponseTime() <= 0 {
		t.Fatal("jobs have no response time")
	}
	if len(sys.Jobs()) != 2 {
		t.Fatalf("Jobs() = %d", len(sys.Jobs()))
	}
	rep := sys.Report()
	if rep.Makespan < makespan || rep.CPUUtilization <= 0 || rep.DiskRequests == 0 {
		t.Fatalf("report looks empty: %+v", rep)
	}
	if rep.PageReclaims < 0 || rep.DirtyWrites < 0 || rep.MemoryDenials < 0 {
		t.Fatalf("negative counters: %+v", rep)
	}
	if reqs, wait, pos := sys.DiskStats(0); reqs == 0 || wait < 0 || pos < 0 {
		t.Fatalf("disk stats: %d %g %g", reqs, wait, pos)
	}
}

func TestCustomProgram(t *testing.T) {
	sys := New(MemIsolationMachine(), PIso, Options{})
	u := sys.NewSPU("u", 1)
	sys.Boot()
	p := sys.Custom(u, "script", []Step{
		Touch{Pages: 20},
		Compute{D: 50 * Millisecond},
		Sleep{D: 10 * Millisecond},
	})
	sys.Run()
	if p.ResponseTime() < 60*Millisecond {
		t.Fatalf("custom program response %v", p.ResponseTime())
	}
}

func TestUnequalSharesContract(t *testing.T) {
	// §2.1: project A owns a third of the machine and project B two
	// thirds. Under Quo with both saturating, B's identical job should
	// finish roughly twice as fast as A's.
	sys := New(CPUIsolationMachine(), Quo, Options{}) // 8 CPUs... A: ~2.67, B: ~5.33
	a := sys.NewSPU("A", 1)
	b := sys.NewSPU("B", 2)
	sys.Boot()
	params := DefaultOcean()
	params.Procs = 8 // oversubscribe both SPUs so CPU share dominates
	params.Iterations = 10
	ja := sys.Ocean(a, "jobA", params)
	jb := sys.Ocean(b, "jobB", params)
	sys.Run()
	ratio := float64(ja.ResponseTime()) / float64(jb.ResponseTime())
	if ratio < 1.5 || ratio > 2.8 {
		t.Fatalf("A/B response ratio %.2f, want ~2 (B owns twice the machine)", ratio)
	}
}

func TestSchemesExposed(t *testing.T) {
	if SMP.String() != "SMP" || Quo.String() != "Quo" || PIso.String() != "PIso" {
		t.Fatal("scheme constants broken")
	}
}

func TestHP97560Exposed(t *testing.T) {
	p := HP97560()
	if p.Name != "HP97560" {
		t.Fatal("disk model not exposed")
	}
}

func TestIsolationStoryEndToEnd(t *testing.T) {
	// The headline claim on the public API: a victim SPU's job is
	// unaffected by a noisy neighbour under PIso, but suffers under SMP.
	run := func(scheme Scheme, noisy bool) Time {
		sys := New(CPUIsolationMachine(), scheme, Options{})
		victim := sys.NewSPU("victim", 1)
		noise := sys.NewSPU("noise", 1)
		sys.Boot()
		v := sys.ComputeBound(victim, "victim-job", ComputeParams{
			Total: 2 * Second, Chunk: 100 * Millisecond, WSSPages: 100,
		})
		if noisy {
			// 16 noise threads + the victim on 8 CPUs: under global
			// sharing the victim gets ~8/17 of a CPU.
			for i := 0; i < 16; i++ {
				sys.ComputeBound(noise, "noise", ComputeParams{
					Total: 4 * Second, Chunk: 100 * Millisecond, WSSPages: 50,
				})
			}
		}
		sys.Run()
		return v.ResponseTime()
	}
	pisoQuiet := run(PIso, false)
	pisoNoisy := run(PIso, true)
	smpQuiet := run(SMP, false)
	smpNoisy := run(SMP, true)
	if float64(pisoNoisy) > 1.1*float64(pisoQuiet) {
		t.Errorf("PIso victim degraded %v -> %v", pisoQuiet, pisoNoisy)
	}
	if float64(smpNoisy) < 1.3*float64(smpQuiet) {
		t.Errorf("SMP victim unaffected (%v -> %v); noise model too weak", smpQuiet, smpNoisy)
	}
}

func TestReproduceAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full evaluation")
	}
	out := ReproduceAll()
	for _, want := range []string{"Figure 2", "Figure 3", "Figure 5", "Figure 7",
		"Table 3", "Table 4", "BW-difference", "Reserve Threshold",
		"inode-lock", "revocation", "network bandwidth"} {
		if !strings.Contains(out, want) {
			t.Errorf("ReproduceAll output missing %q", want)
		}
	}
	// Every section the registry produces — what pisobench prints —
	// appears, so the two cannot drift apart again.
	for _, r := range experiment.RunAll(experiment.Registry(), runtime.GOMAXPROCS(0)) {
		for _, s := range r.Output.Sections {
			if !strings.Contains(out, s.Table.Title) {
				t.Errorf("ReproduceAll output missing %s section %q", r.Spec.ID, s.Table.Title)
			}
		}
	}
}
