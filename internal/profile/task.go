package profile

import (
	"perfiso/internal/core"
	"perfiso/internal/sim"
)

// Task accounts one process's lifetime. The instrumented layers call To
// at every state transition; Task charges the elapsed interval to the
// state being left, so buckets telescope and sum exactly to the
// process's response time. A nil Task is a valid no-op sink.
type Task struct {
	p       *Profiler
	proc    string
	spu     core.SPUID
	started sim.Time

	since   sim.Time
	state   State
	culprit core.SPUID

	stepID    int64
	stepName  string
	stepStart sim.Time

	buckets  [NumStates]sim.Time
	finished bool
}

// To transitions the task to a new state, charging the time since the
// previous transition to the previous state's bucket. culprit is the
// SPU responsible if the *new* state is a wait (the SPU holding the
// CPU, the over-entitled memory user); pass the task's own SPU when
// nobody else is to blame. Calls with zero elapsed time just switch
// state; they cost nothing and charge nothing.
func (t *Task) To(state State, culprit core.SPUID) {
	if t == nil || t.finished {
		return
	}
	now := t.p.eng.Now()
	t.closeSegment(now)
	t.state = state
	t.culprit = culprit
	t.since = now
}

// closeSegment charges [since, now) to the current state and emits a
// span for it. Wait segments with a foreign culprit feed the
// interference matrix; DiskWait segments closing inside a disk
// completion window are split into queue/service/backoff.
func (t *Task) closeSegment(now sim.Time) {
	dur := now - t.since
	if dur <= 0 {
		return
	}
	p := t.p
	culprit := t.culprit
	var flow int64
	switch t.state {
	case StateDiskWait:
		if p.winActive {
			// The segment ends inside the completion callback of the
			// request the task waited on: the window bounds its service
			// interval and carries its accumulated retry backoff. What
			// is neither service nor backoff was queueing behind other
			// SPUs' requests (attributed to the matrix by the disk
			// scheduler when it chose to serve them first).
			service := p.win.finished - p.win.started
			if service > dur {
				service = dur
			}
			if service < 0 {
				service = 0
			}
			backoff := p.win.backoff
			if backoff > dur-service {
				backoff = dur - service
			}
			t.buckets[StateDiskService] += service
			t.buckets[StateBackoff] += backoff
			t.buckets[StateDiskQueue] += dur - service - backoff
			culprit = p.win.stolenBy
			flow = p.win.spanID
		} else {
			// No window: the wait resolved without a fresh completion
			// (e.g. piggybacking on an already-filled cache page);
			// count it all as queueing.
			t.buckets[StateDiskQueue] += dur
		}
	case StateRunnable:
		t.buckets[StateRunnable] += dur
		p.AddTheft(t.spu, culprit, CPU, dur)
	case StateMemWait:
		t.buckets[StateMemWait] += dur
		p.AddTheft(t.spu, culprit, Memory, dur)
	case StateSwap:
		t.buckets[StateSwap] += dur
		if p.winActive {
			flow = p.win.spanID
		}
	default:
		t.buckets[t.state] += dur
	}
	p.emit(Span{
		ID: p.allocID(), Parent: t.stepID,
		SPU: t.spu, Proc: t.proc, Name: t.state.String(),
		Culprit: culprit, Start: t.since, End: now, Flow: flow,
	})
}

// BeginStep opens a new step span named name ("step:compute", ...),
// closing the previous one: the process layer calls it before running
// each program step, so every segment span recorded while the step
// runs is parented under it.
func (t *Task) BeginStep(name string) {
	if t == nil || t.finished {
		return
	}
	now := t.p.eng.Now()
	t.closeStep(now)
	t.stepID = t.p.allocID()
	t.stepName = name
	t.stepStart = now
}

// closeStep emits the open step span, if any.
func (t *Task) closeStep(now sim.Time) {
	if t.stepID == 0 {
		return
	}
	if now > t.stepStart {
		t.p.emit(Span{
			ID: t.stepID, SPU: t.spu, Proc: t.proc, Name: t.stepName,
			Culprit: t.spu, Start: t.stepStart, End: now,
		})
	}
	t.stepID = 0
}

// Finish closes the final segment and step, verifies the conservation
// identity (buckets sum exactly to finish-start), and folds the task
// into the profiler's aggregates. Further calls are no-ops.
func (t *Task) Finish() {
	if t == nil || t.finished {
		return
	}
	now := t.p.eng.Now()
	t.closeSegment(now)
	t.closeStep(now)
	t.finished = true
	var total sim.Time
	for s := State(0); s < NumStates; s++ {
		total += t.buckets[s]
	}
	if total != now-t.started {
		t.p.violation("task %s (spu%d): buckets sum to %s but response time is %s",
			t.proc, int(t.spu), total, now-t.started)
	}
	t.p.fold(t, now)
}
