package trace

import (
	"fmt"
	"strings"
	"testing"

	"perfiso/internal/sim"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(Sched, "cpu0", "loan", "to spu3")
	tr.Emitf(Mem, "spu2", "evict", "%d pages", 5)
	if tr.Len() != 0 || tr.Count(Sched) != 0 || tr.Events() != nil {
		t.Fatal("nil tracer should be inert")
	}
}

func TestEmitAndEvents(t *testing.T) {
	eng := sim.NewEngine()
	tr := New(eng, 16)
	eng.At(5*sim.Millisecond, "e", func() {
		tr.Emit(Sched, "cpu1", "loan", "thread x")
	})
	eng.Run()
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("len = %d", len(evs))
	}
	e := evs[0]
	if e.At != 5*sim.Millisecond || e.Kind != Sched || e.Subject != "cpu1" {
		t.Fatalf("event = %+v", e)
	}
	if tr.Count(Sched) != 1 {
		t.Fatal("count missing")
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	tr := New(sim.NewEngine(), 4)
	for i := 0; i < 10; i++ {
		tr.Emitf(Proc, "p", "step", "%d", i)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("len = %d", len(evs))
	}
	if evs[0].Detail != "6" || evs[3].Detail != "9" {
		t.Fatalf("ring order wrong: %v", evs)
	}
	if tr.Count(Proc) != 10 {
		t.Fatal("count should include overwritten events")
	}
}

func TestFind(t *testing.T) {
	tr := New(sim.NewEngine(), 16)
	tr.Emit(Sched, "cpu0", "loan", "")
	tr.Emit(Sched, "cpu0", "revoke", "")
	tr.Emit(Sched, "cpu1", "loan", "")
	if got := tr.Find("loan"); len(got) != 2 {
		t.Fatalf("Find(loan) = %d", len(got))
	}
	if got := tr.Find("revoke"); len(got) != 1 {
		t.Fatalf("Find(revoke) = %d", len(got))
	}
}

func TestDumpAndString(t *testing.T) {
	tr := New(sim.NewEngine(), 8)
	tr.Emit(Disk, "spu3", "deny", "over threshold")
	tr.Emit(FS, "inode", "contend", "")
	var sb strings.Builder
	tr.Dump(&sb)
	out := sb.String()
	if !strings.Contains(out, "deny") || !strings.Contains(out, "over threshold") {
		t.Fatalf("dump missing content:\n%s", out)
	}
	if strings.Count(out, "\n") != 2 {
		t.Fatalf("want 2 lines:\n%s", out)
	}
}

func TestKindStrings(t *testing.T) {
	names := map[Kind]string{Sched: "sched", Mem: "mem", Disk: "disk", FS: "fs", Proc: "proc", Policy: "policy"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestDefaultCapacity(t *testing.T) {
	tr := New(sim.NewEngine(), 0)
	for i := 0; i < 2000; i++ {
		tr.Emit(Proc, "p", "a", "")
	}
	if tr.Len() != 1024 {
		t.Fatalf("default capacity = %d", tr.Len())
	}
}

// Ring overwrites must never be silent: Dropped counts them and Dump
// announces the truncation.
func TestDroppedCountsOverwrites(t *testing.T) {
	var nilTr *Tracer
	if nilTr.Dropped() != 0 {
		t.Fatal("nil tracer reports drops")
	}
	tr := New(sim.NewEngine(), 4)
	for i := 0; i < 4; i++ {
		tr.Emit(Proc, "p", "step", "")
	}
	if tr.Dropped() != 0 {
		t.Fatalf("Dropped = %d before the ring wrapped", tr.Dropped())
	}
	for i := 0; i < 6; i++ {
		tr.Emit(Proc, "p", "step", "")
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	var sb strings.Builder
	tr.Dump(&sb)
	if !strings.Contains(sb.String(), "6 earlier events dropped") {
		t.Fatalf("Dump does not announce the drop:\n%s", sb.String())
	}
	if strings.Count(sb.String(), "\n") != 5 { // 4 events + 1 notice
		t.Fatalf("want 5 lines:\n%s", sb.String())
	}
}

// Every defined kind has a distinct lowercase name, and out-of-range
// values render as kind(N) instead of panicking or aliasing.
func TestKindStringRoundTrip(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(0); k < NumKinds; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "kind(") {
			t.Fatalf("kind %d renders as %q", k, s)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("kinds %d and %d share the name %q", prev, k, s)
		}
		seen[s] = k
	}
	for _, k := range []Kind{NumKinds, Kind(99), Kind(-1)} {
		want := fmt.Sprintf("kind(%d)", int(k))
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}
