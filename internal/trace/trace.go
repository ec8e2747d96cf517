// Package trace records the resource-management decisions the kernel
// makes — CPU loans and revocations, page evictions and memory-policy
// adjustments, disk fairness denials — as a bounded in-memory event log.
//
// Tracing exists for two audiences: tests that want to assert *why* a
// result happened (e.g. "isolation held because the loan was revoked
// within a tick"), and humans debugging a workload through cmd/pisosim's
// -trace flag. A nil *Tracer is valid and free: every method is a no-op
// on nil, so instrumented code never branches on "is tracing on".
package trace

import (
	"fmt"
	"io"
	"strings"

	"perfiso/internal/sim"
)

// Kind classifies an event by the subsystem that emitted it.
type Kind int

const (
	Sched   Kind = iota // CPU scheduling: dispatch, loan, revoke
	Mem                 // memory: eviction, lending, revocation
	Disk                // disk: fairness denials, policy decisions
	FS                  // file system: flushes, lock contention
	Proc                // process lifecycle
	Policy              // periodic policy ticks
	Fault               // injected faults and their recovery
	Audit               // invariant auditor violations and watchdog trips
	Control             // SLO controller: retunes, shedding, circuit breaker
	NumKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Sched:
		return "sched"
	case Mem:
		return "mem"
	case Disk:
		return "disk"
	case FS:
		return "fs"
	case Proc:
		return "proc"
	case Policy:
		return "policy"
	case Fault:
		return "fault"
	case Audit:
		return "audit"
	case Control:
		return "control"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one recorded decision.
type Event struct {
	At      sim.Time
	Kind    Kind
	Subject string // who it concerns: thread, SPU, page group
	Action  string // what happened: "loan", "revoke", "evict", ...
	Detail  string // free-form specifics
}

// String renders an event as one log line.
func (e Event) String() string {
	if e.Detail == "" {
		return fmt.Sprintf("%12s %-6s %-16s %s", e.At, e.Kind, e.Subject, e.Action)
	}
	return fmt.Sprintf("%12s %-6s %-16s %-10s %s", e.At, e.Kind, e.Subject, e.Action, e.Detail)
}

// Tracer is a bounded ring of events. The zero value is unusable; use
// New. A nil Tracer is a valid no-op sink.
type Tracer struct {
	eng     *sim.Engine
	ring    []Event
	next    int
	filled  bool
	dropped int64
	counts  [NumKinds]int64
	// reported is how many drops Dump has already announced, so repeated
	// dumps don't repeat the notice for the same lost events.
	reported int64
}

// New creates a tracer keeping the most recent capacity events (1024 if
// capacity <= 0).
func New(eng *sim.Engine, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Tracer{eng: eng, ring: make([]Event, capacity)}
}

// Emit records an event. Safe (and free) on a nil tracer.
func (t *Tracer) Emit(kind Kind, subject, action, detail string) {
	if t == nil {
		return
	}
	t.counts[kind]++
	if t.filled {
		t.dropped++ // the ring is full: this write evicts the oldest event
	}
	t.ring[t.next] = Event{At: t.eng.Now(), Kind: kind, Subject: subject, Action: action, Detail: detail}
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.filled = true
	}
}

// Emitf is Emit with a formatted detail string. The formatting cost is
// only paid when the tracer is non-nil.
func (t *Tracer) Emitf(kind Kind, subject, action, format string, args ...any) {
	if t == nil {
		return
	}
	t.Emit(kind, subject, action, fmt.Sprintf(format, args...))
}

// Len returns the number of stored events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	if t.filled {
		return len(t.ring)
	}
	return t.next
}

// Dropped returns how many stored events the ring has overwritten —
// the events Emit accepted but Events can no longer return. A non-zero
// value means the capacity was too small for the run.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Count returns how many events of the kind were emitted (including
// ones overwritten by the ring).
func (t *Tracer) Count(kind Kind) int64 {
	if t == nil {
		return 0
	}
	return t.counts[kind]
}

// Events returns the stored events oldest-first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, t.Len())
	if t.filled {
		out = append(out, t.ring[t.next:]...)
	}
	out = append(out, t.ring[:t.next]...)
	return out
}

// Find returns stored events whose action contains the given substring,
// oldest-first.
func (t *Tracer) Find(action string) []Event {
	var out []Event
	for _, e := range t.Events() {
		if strings.Contains(e.Action, action) {
			out = append(out, e)
		}
	}
	return out
}

// Dump writes the stored events to w, one line each, and reports how
// many earlier events the ring dropped so truncation is never silent.
// The dropped-events notice appears once per loss: a second Dump with no
// further drops in between does not repeat it.
func (t *Tracer) Dump(w io.Writer) {
	t.DumpFiltered(w, nil, "")
}

// DumpFiltered is Dump restricted to the given kinds (nil or empty =
// all) and, when spu is non-empty (an SPU name like "spu2"), to events
// concerning that SPU (see MatchSPU).
func (t *Tracer) DumpFiltered(w io.Writer, kinds []Kind, spu string) {
	if t == nil {
		return
	}
	if d := t.Dropped(); d > t.reported {
		fmt.Fprintf(w, "(%d earlier events dropped; raise the trace capacity to keep them)\n", d-t.reported)
		t.reported = d
	}
	for _, e := range FilterEvents(t.Events(), kinds, spu) {
		fmt.Fprintln(w, e)
	}
}
