package control

import "perfiso/internal/sim"

// The deadline-aware retry schedule. The old fs/mem/kernel retry loops
// backed off exponentially but retried forever at full cadence: under
// a long disk fault every stuck request kept resubmitting every
// RetryMax, and the retry storm itself became an interference source.
// A Budget keeps the exact same exponential schedule (RetryBase
// doubling to RetryMax) until the request has spent RetryBudget
// waiting — its deadline budget, about seven attempts — and then forces
// the caller onto its degraded path: fail over to a healthy disk where
// the data allows it, or throttle to the RetrySlowLane cadence where it
// does not.
const (
	RetryBase     = 5 * sim.Millisecond   // first backoff
	RetryMax      = 80 * sim.Millisecond  // backoff ceiling
	RetryBudget   = 320 * sim.Millisecond // total backoff allowed before the degraded path
	RetrySlowLane = 160 * sim.Millisecond // retry cadence once the budget is spent
)

// Budget tracks one request's retry spending. The zero value is not
// usable; get one from NewBudget.
type Budget struct {
	spent sim.Time
	next  sim.Time
}

// NewBudget starts a fresh budget for one request.
func NewBudget() Budget { return Budget{next: RetryBase} }

// Next returns how long to back off before the next attempt.
// degraded=false means the budget still covers the attempt and wait
// follows the exponential schedule; degraded=true means the budget is
// exhausted — wait is the slow-lane cadence and the caller should take
// its degraded path (fail over, or keep retrying only at this bounded
// rate).
func (b *Budget) Next() (wait sim.Time, degraded bool) {
	if b.spent >= RetryBudget {
		return RetrySlowLane, true
	}
	wait = b.next
	if b.next < RetryMax {
		b.next *= 2
		if b.next > RetryMax {
			b.next = RetryMax
		}
	}
	b.spent += wait
	return wait, false
}
