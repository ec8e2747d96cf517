package proc

import (
	"testing"
	"unsafe"

	"perfiso/internal/core"
	"perfiso/internal/mem"
	"perfiso/internal/sim"
)

// TestStructSizes pins the two structs the big workloads allocate most:
// a page frame per fault and a process per request. Each sits at the
// top of a Go size class; a field more moves it up one and costs every
// rep allocated bytes.
func TestStructSizes(t *testing.T) {
	if s := unsafe.Sizeof(mem.Page{}); s > 80 {
		t.Errorf("mem.Page is %d bytes, want at most 80", s)
	}
	if s := unsafe.Sizeof(Process{}); s > 240 {
		t.Errorf("proc.Process is %d bytes, want at most 240", s)
	}
}

// residentProcess starts a process whose working set of pages is fully
// resident and returns it with a continuation that does nothing.
func residentProcess(t *testing.T, pages int) (*Process, func()) {
	t.Helper()
	env, us := newEnv(1, core.ShareIdle, 1, 4096)
	p := New(env, us[0].ID(), "ws", []Step{Touch{Pages: pages}, Sleep{D: sim.Second}})
	p.Start()
	if p.Resident() != pages {
		t.Fatalf("resident = %d after Touch, want %d", p.Resident(), pages)
	}
	return p, func() {}
}

// TestResidentComputeAllocatesNothing: a Compute step's working-set
// check on a fully resident set touches the set with one store and
// allocates nothing.
func TestResidentComputeAllocatesNothing(t *testing.T) {
	p, done := residentProcess(t, 512)
	eng := p.env.Engine()
	if allocs := testing.AllocsPerRun(100, func() {
		eng.RunUntil(eng.Now() + sim.Microsecond)
		p.ensureResident(done)
	}); allocs != 0 {
		t.Fatalf("a resident Compute allocates %.1f objects", allocs)
	}
	if p.Faults != 512 {
		t.Fatalf("faults = %d, want only the first 512", p.Faults)
	}
}

// TestFaultAllocatesOnlyFrames: faulting n fresh pages allocates the n
// frames and nothing else — no closure per page or per fault-in. The
// set's slots grow by doubling, a handful of allocations over all the
// runs, which the integer mean AllocsPerRun reports rounds away; a
// closure per page would read 2n, one per fault-in n+1.
func TestFaultAllocatesOnlyFrames(t *testing.T) {
	const n = 8
	p, done := residentProcess(t, 64)
	if allocs := testing.AllocsPerRun(100, func() {
		p.wssTarget += n
		p.ensureResident(done)
	}); allocs != n {
		t.Fatalf("faulting %d fresh pages allocates %.1f objects, want %d", n, allocs, n)
	}
	if want := 64 + 101*n; p.Resident() != want || p.Faults != int64(want) {
		t.Fatalf("resident %d, faults %d, want %d", p.Resident(), p.Faults, want)
	}
}
