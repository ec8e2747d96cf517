package profile

import (
	"bytes"
	"fmt"
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/sim"
)

const (
	spuA = core.FirstUserID
	spuB = core.FirstUserID + 1
)

// TestTaskConservation drives a task through every transition shape and
// checks the telescoping identity: buckets sum to response time exactly.
func TestTaskConservation(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng)
	task := p.Begin("job", spuA)

	task.To(StateRunnable, spuB) // ready [0, 0) — zero, charges nothing
	eng.RunUntil(10 * sim.Millisecond)
	task.To(StateRun, spuA) // runnable [0, 10ms) blamed on spuB
	eng.RunUntil(35 * sim.Millisecond)
	task.To(StateMemWait, spuB) // run [10ms, 35ms)
	eng.RunUntil(42 * sim.Millisecond)
	task.To(StateRun, spuA) // memwait [35ms, 42ms) blamed on spuB
	eng.RunUntil(50 * sim.Millisecond)
	task.Finish() // run [42ms, 50ms)

	recs := p.Tasks()
	if len(recs) != 1 {
		t.Fatalf("Tasks() = %d records, want 1", len(recs))
	}
	r := recs[0]
	var sum sim.Time
	for s := State(0); s < NumStates; s++ {
		sum += r.Buckets[s]
	}
	if resp := r.Finished - r.Started; sum != resp {
		t.Fatalf("buckets sum to %v, response time %v", sum, resp)
	}
	if got := r.Buckets[StateRun]; got != 33*sim.Millisecond {
		t.Errorf("run bucket = %v, want 33ms", got)
	}
	if got := r.Buckets[StateRunnable]; got != 10*sim.Millisecond {
		t.Errorf("runnable bucket = %v, want 10ms", got)
	}
	if got := r.Buckets[StateMemWait]; got != 7*sim.Millisecond {
		t.Errorf("memwait bucket = %v, want 7ms", got)
	}
	if v := p.Violations(); v != 0 {
		t.Fatalf("conservation violations = %d", v)
	}
	if err := p.AuditConservation(); err != nil {
		t.Fatalf("AuditConservation: %v", err)
	}

	// The waits fed the interference matrix.
	if got := p.Stolen(spuA, spuB, CPU); got != 10*sim.Millisecond {
		t.Errorf("cpu theft = %v, want 10ms", got)
	}
	if got := p.Stolen(spuA, spuB, Memory); got != 7*sim.Millisecond {
		t.Errorf("memory theft = %v, want 7ms", got)
	}
}

// TestDiskWindowSplit checks that a DiskWait segment closing inside a
// completion window is split into queue, service, and backoff.
func TestDiskWindowSplit(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng)
	task := p.Begin("io", spuA)
	task.To(StateDiskWait, spuA)
	eng.RunUntil(100 * sim.Millisecond)
	// The request queued at 0, started service at 40ms, finished at
	// 90ms, and accumulated 10ms of retry backoff; spuB was served
	// ahead of it.
	p.BeginDiskWindow(40*sim.Millisecond, 90*sim.Millisecond, 10*sim.Millisecond, spuB, 7)
	task.To(StateRun, spuA)
	p.EndDiskWindow()
	eng.RunUntil(110 * sim.Millisecond)
	task.Finish()

	r := p.Tasks()[0]
	if got := r.Buckets[StateDiskService]; got != 50*sim.Millisecond {
		t.Errorf("service = %v, want 50ms", got)
	}
	if got := r.Buckets[StateBackoff]; got != 10*sim.Millisecond {
		t.Errorf("backoff = %v, want 10ms", got)
	}
	if got := r.Buckets[StateDiskQueue]; got != 40*sim.Millisecond {
		t.Errorf("queue = %v, want 40ms", got)
	}
	if got := r.Buckets[StateDiskWait]; got != 0 {
		t.Errorf("raw diskwait = %v, want 0 (fully split)", got)
	}
	// Disk theft flows in only from the disk scheduler's blame pass,
	// never from the segment close.
	if got := p.Stolen(spuA, spuB, Disk); got != 0 {
		t.Errorf("segment close charged disk theft %v; only the disk layer may", got)
	}
	// The wait span carries the flow link to the service span.
	var found bool
	for _, s := range p.Spans() {
		if s.Name == "diskwait" && s.Flow == 7 && s.Culprit == spuB {
			found = true
		}
	}
	if !found {
		t.Error("no diskwait span with flow=7 culprit=spuB recorded")
	}
}

// Without a completion window (a wait satisfied by an already-resident
// page) the whole stall counts as queueing.
func TestDiskWaitWithoutWindowIsQueueing(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng)
	task := p.Begin("io", spuA)
	task.To(StateDiskWait, spuA)
	eng.RunUntil(30 * sim.Millisecond)
	task.To(StateRun, spuA)
	task.Finish()
	if got := p.Tasks()[0].Buckets[StateDiskQueue]; got != 30*sim.Millisecond {
		t.Fatalf("queue = %v, want 30ms", got)
	}
}

// TestAddTheftIgnoresSelf: self-inflicted waits are not theft.
func TestAddTheftIgnoresSelf(t *testing.T) {
	p := New(sim.NewEngine())
	p.AddTheft(spuA, spuA, CPU, sim.Second)
	p.AddTheft(spuA, spuB, CPU, 0)
	p.AddTheft(spuA, spuB, CPU, -sim.Second)
	if got := len(p.Interference()); got != 0 {
		t.Fatalf("interference has %d cells, want 0", got)
	}
}

// TestNilSinksAreSafe: every profiler and task method is a no-op on nil.
func TestNilSinksAreSafe(t *testing.T) {
	var p *Profiler
	task := p.Begin("x", spuA)
	if task != nil {
		t.Fatal("nil profiler returned non-nil task")
	}
	task.To(StateRun, spuA)
	task.BeginStep("compute")
	task.Finish()
	p.AddTheft(spuA, spuB, CPU, sim.Second)
	p.BeginDiskWindow(0, 0, 0, spuA, 0)
	p.EndDiskWindow()
	if p.DiskSpans(spuA, "read", 0, 0, 0, spuA) != 0 {
		t.Fatal("nil DiskSpans returned a span id")
	}
	if p.Spans() != nil || p.Tasks() != nil || p.Totals() != nil || p.Interference() != nil {
		t.Fatal("nil accessors returned data")
	}
	if p.Violations() != 0 || p.SpansDropped() != 0 || p.AuditConservation() != nil {
		t.Fatal("nil counters returned data")
	}
}

// TestSpanRingEvictsOldest: a full ring drops the oldest spans and
// counts them.
func TestSpanRingEvictsOldest(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng)
	for i := 0; i < DefaultSpanCapacity+2; i++ {
		p.emit(Span{ID: int64(i + 1)})
	}
	spans := p.Spans()
	if len(spans) != DefaultSpanCapacity {
		t.Fatalf("ring holds %d spans, want %d", len(spans), DefaultSpanCapacity)
	}
	last := len(spans) - 1
	if spans[0].ID != 3 || spans[last].ID != DefaultSpanCapacity+2 {
		t.Fatalf("ring order = [%d..%d], want oldest-first [3..%d]", spans[0].ID, spans[last].ID, DefaultSpanCapacity+2)
	}
	if p.SpansDropped() != 2 {
		t.Fatalf("dropped = %d, want 2", p.SpansDropped())
	}
}

// TestWriteSpansDeterministic: identical runs serialize identically.
func TestWriteSpansDeterministic(t *testing.T) {
	build := func() *Profiler {
		eng := sim.NewEngine()
		p := New(eng)
		task := p.Begin("job", spuA)
		task.BeginStep("read")
		task.To(StateDiskWait, spuA)
		eng.RunUntil(20 * sim.Millisecond)
		svc := p.DiskSpans(spuA, "read", 0, 5*sim.Millisecond, 20*sim.Millisecond, spuB)
		p.BeginDiskWindow(5*sim.Millisecond, 20*sim.Millisecond, 0, spuB, svc)
		task.To(StateRun, spuA)
		p.EndDiskWindow()
		eng.RunUntil(30 * sim.Millisecond)
		task.Finish()
		return p
	}
	var a, b bytes.Buffer
	if err := build().WriteSpans(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteSpans(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical runs produced different span JSONL")
	}
	if a.Len() == 0 {
		t.Fatal("span JSONL is empty")
	}
}

// TestWriteSpansMatchesFmt: the hand-appended span lines are the bytes
// fmt writes for the same fields (%d and %q), across a wrapped ring and
// names that need escaping.
func TestWriteSpansMatchesFmt(t *testing.T) {
	p := New(sim.NewEngine())
	procs := []string{"job", `q"uo\te`, "tab\tnl\n", "snow\u2603", "ctl\x00\x7f", "bad\xff"}
	n := DefaultSpanCapacity + 37
	for i := 0; i < n; i++ {
		p.emit(Span{ID: int64(i + 1), Parent: int64(i / 3), SPU: core.SPUID(i % 5),
			Proc: procs[i%len(procs)], Name: "step:compute", Culprit: core.SPUID(i % 7),
			Start: sim.Time(i) * sim.Millisecond, End: sim.Time(i+1) * sim.Millisecond, Flow: int64(-i)})
	}
	var want bytes.Buffer
	spans := p.Spans()
	fmt.Fprintf(&want, `{"spans":%d,"dropped":%d}`+"\n", len(spans), p.SpansDropped())
	for _, s := range spans {
		fmt.Fprintf(&want,
			`{"id":%d,"parent":%d,"spu":%d,"proc":%q,"name":%q,"culprit":%d,"start":%d,"end":%d,"flow":%d}`+"\n",
			s.ID, s.Parent, int(s.SPU), s.Proc, s.Name, int(s.Culprit),
			int64(s.Start), int64(s.End), s.Flow)
	}
	var got bytes.Buffer
	if err := p.WriteSpans(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteSpans bytes differ from fmt's")
	}
	var empty bytes.Buffer
	if err := (*Profiler)(nil).WriteSpans(&empty); err != nil || empty.String() != `{"spans":0,"dropped":0}`+"\n" {
		t.Fatalf("nil profiler wrote %q, %v", empty.String(), err)
	}
}

// TestConservationViolationSurfaces: a task whose books do not balance
// is reported through the audit hook (forced by mutating a bucket
// behind the task's back).
func TestConservationViolationSurfaces(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng)
	task := p.Begin("bad", spuA)
	task.To(StateRun, spuA)
	eng.RunUntil(10 * sim.Millisecond)
	task.buckets[StateRun] += sim.Millisecond // corrupt the books
	task.Finish()
	if p.Violations() != 1 {
		t.Fatalf("violations = %d, want 1", p.Violations())
	}
	if err := p.AuditConservation(); err == nil {
		t.Fatal("AuditConservation returned nil for broken books")
	}
}
