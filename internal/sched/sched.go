package sched

import (
	"fmt"

	"perfiso/internal/core"
	"perfiso/internal/lock"
	"perfiso/internal/metrics"
	"perfiso/internal/profile"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
	"perfiso/internal/trace"
)

const (
	// DefaultSlice is the IRIX time slice: 30 ms unless the process
	// blocks earlier (§3.1).
	DefaultSlice = 30 * sim.Millisecond
	// TickPeriod is the clock-tick interval: loans are revoked at the
	// next tick, so the maximum revocation latency is 10 ms (§3.1).
	TickPeriod = 10 * sim.Millisecond
	// priDecay is the per-tick multiplicative decay of accumulated CPU
	// usage in the priority calculation.
	priDecay = 0.9
)

// CPU is one processor.
type cpu struct {
	idx   int
	home  core.SPUID // home SPU; rotor may re-home fractional CPUs
	fixed bool       // integral assignment (not rotated)
	cur   *Thread
	// sliceSeq stamps the pending slice-end event; bumping it (preempt,
	// re-dispatch) turns any in-flight slice event into a no-op, so a
	// dispatch schedules its slice end without keeping a Handle to
	// cancel it.
	sliceSeq uint64
	started  sim.Time // when cur was dispatched
	loan     bool     // cur belongs to a foreign SPU
	busyness stats.TimeWeighted

	// Fault injection (internal/fault). An offline CPU is excluded from
	// home assignment, dispatch, lending, rotation and gang placement; a
	// straggler runs at speed < 1, so a slice of wall time accomplishes
	// proportionally less progress.
	offline bool
	speed   float64 // 1 = nominal

	lastThread  *Thread  // cache ownership: who ran here most recently
	lastRevoke  sim.Time // when a loan was last revoked (rate limiter)
	everRevoked bool
	rehomed     sim.Time // when this CPU's home last changed or AssignHomes flagged its occupant a loan
}

// Options configures a Scheduler.
type Options struct {
	// IPIRevoke revokes loaned CPUs immediately when a home thread
	// wakes, instead of waiting for the next tick (§3.1's "send an
	// inter-processor interrupt to get the processor back sooner").
	IPIRevoke bool
	// CacheReload models §3.1's "hidden costs to reallocating CPUs,
	// such as cache pollution": a thread dispatched onto a CPU whose
	// cache it does not own (another thread ran there since, or the
	// thread migrated) pays this much extra CPU time re-fetching its
	// working set. Zero disables the model.
	CacheReload sim.Time
	// MinLoanInterval rate-limits lending, the "more sophisticated
	// implementation of the sharing policy" §3.1 sketches: a CPU whose
	// loan was revoked within this interval refuses new loans, damping
	// revocation churn and its cache pollution. Zero disables.
	MinLoanInterval sim.Time
}

// Stats aggregates scheduler-wide counters.
type Stats struct {
	Dispatches     int64
	Preemptions    int64
	Loans          int64 // dispatches of foreign threads onto idle CPUs
	Revocations    int64 // loans taken back for a home thread
	GangPlacements int64 // whole-gang co-scheduling placements
	CacheReloads   int64 // dispatches that paid the cache-pollution cost
	LoansDamped    int64 // loans refused by the MinLoanInterval limiter
}

// Scheduler multiplexes threads onto CPUs with SPU isolation and sharing.
type Scheduler struct {
	eng  *sim.Engine
	spus *core.Manager
	opts Options

	cpus []*cpu
	// runq holds per-SPU FIFO queues of runnable threads, indexed by SPU
	// ID (dense and small). A slice avoids map hashing on the dispatch
	// fast path and makes iteration order deterministic for free.
	runq [][]*Thread
	// sliceFn is the one slice-end callback shared by every dispatch; the
	// operand packs (sliceSeq, cpu index) so arming a slice allocates
	// nothing. See dispatchOn.
	sliceFn func(uint64)
	// cpuCounts is recomputeCPULevels' scratch buffer, reused across
	// ticks so the 10 ms tick stays allocation-free.
	cpuCounts []int

	// rotor state for time-partitioning fractional CPU entitlements:
	// rotorFrac holds each SPU's fractional claim per tick, rotorCredit
	// its accumulated unserved credit.
	rotorFrac   map[core.SPUID]float64
	rotorCredit map[core.SPUID]float64

	Stat Stats
	// PerSPUTime accumulates CPU seconds consumed per SPU.
	PerSPUTime map[core.SPUID]*sim.Time
	// Trace, when non-nil, records loans and revocations.
	Trace *trace.Tracer
	// Metrics, when non-nil, receives per-SPU loan/revocation counters
	// and the revocation-latency distribution. Nil costs nothing.
	Metrics *metrics.Registry
	// AuditHook, when non-nil, runs after every loan dispatch and loan
	// revocation so the invariant auditor can check sharing boundaries
	// the moment they move, not just at the next tick. The hook must
	// only read scheduler state.
	AuditHook func(reason string)

	// RunqLock, when non-nil, is the accounting-only model of the lock
	// a real kernel takes around run-queue manipulation: one shared
	// gate is the coarse SMP global-queue lock, per-SPU gates are the
	// isolating per-SPU queues this scheduler actually implements. It
	// records the serialization (and cross-SPU lock theft, under a
	// shared gate) without perturbing dispatch timing. Nil costs one
	// branch per queue operation.
	RunqLock *lock.GateSet

	gangs []*Gang

	// lendPrefs restricts which SPUs an owner lends idle CPUs to (§3.1:
	// "An SPU could be explicitly picked if the home SPU's sharing
	// policy indicated a preference"). Absent entry = lend to anyone.
	lendPrefs map[core.SPUID]map[core.SPUID]bool
}

// New creates a scheduler for numCPUs processors.
func New(eng *sim.Engine, spus *core.Manager, numCPUs int, opts Options) *Scheduler {
	if numCPUs <= 0 || numCPUs > sliceCPUMask+1 {
		panic(fmt.Sprintf("sched: numCPUs = %d", numCPUs))
	}
	s := &Scheduler{
		eng:         eng,
		spus:        spus,
		opts:        opts,
		rotorFrac:   make(map[core.SPUID]float64),
		rotorCredit: make(map[core.SPUID]float64),
		PerSPUTime:  make(map[core.SPUID]*sim.Time),
		lendPrefs:   make(map[core.SPUID]map[core.SPUID]bool),
	}
	for i := 0; i < numCPUs; i++ {
		// Before AssignHomes runs, CPUs are homed at the kernel SPU,
		// whose ShareAll policy makes the machine behave as plain SMP.
		s.cpus = append(s.cpus, &cpu{idx: i, home: core.KernelID, speed: 1})
	}
	s.sliceFn = func(arg uint64) {
		c := s.cpus[arg&sliceCPUMask]
		if arg>>sliceCPUBits == c.sliceSeq&sliceSeqMask {
			s.sliceEnd(c)
		}
	}
	return s
}

// Slice-end operand packing: the low bits carry the CPU index, the rest
// the sliceSeq stamp at arm time. 16 bits bound the machine at 65536
// CPUs (the paper's Origin tops out at 128); 48 bits of sequence cannot
// wrap within any simulable run.
const (
	sliceCPUBits = 16
	sliceCPUMask = 1<<sliceCPUBits - 1
	sliceSeqMask = 1<<(64-sliceCPUBits) - 1
)

// rq returns the SPU's runqueue (nil when it never had one).
func (s *Scheduler) rq(id core.SPUID) []*Thread {
	if int(id) >= len(s.runq) {
		return nil
	}
	return s.runq[id]
}

// pushRunq appends a runnable thread to its SPU's queue, growing the
// dense queue table on first sight of a new SPU ID.
func (s *Scheduler) pushRunq(t *Thread) {
	s.RunqLock.Acquire(t.SPU)
	for int(t.SPU) >= len(s.runq) {
		s.runq = append(s.runq, nil)
	}
	s.runq[t.SPU] = append(s.runq[t.SPU], t)
}

// NumCPUs returns the processor count.
func (s *Scheduler) NumCPUs() int { return len(s.cpus) }

// AssignHomes space-partitions the CPUs among the active user SPUs
// according to their entitlements (§3.1). Each SPU receives an integral
// number of dedicated CPUs; leftover CPUs are marked rotatable and are
// time-partitioned among the SPUs with unserved fractional entitlement
// by the per-tick rotor.
func (s *Scheduler) AssignHomes() {
	users := s.spus.ActiveUsers()
	if len(users) == 0 {
		return
	}
	oldHomes := make([]core.SPUID, len(s.cpus))
	for i, c := range s.cpus {
		oldHomes[i] = c.home
	}
	defer func() {
		// Stamp re-homed CPUs: revocation-latency bounds (and their
		// audit) only hold from the moment the current topology exists.
		for i, c := range s.cpus {
			if c.home != oldHomes[i] {
				c.rehomed = s.eng.Now()
			}
		}
	}()
	// Only online CPUs are divided up; an offlined CPU (fault injection)
	// is parked at the kernel SPU and excluded from rotation, so
	// entitlements shrink to the machine that actually exists.
	var online []*cpu
	for _, c := range s.cpus {
		if c.offline {
			c.home = core.KernelID
			c.fixed = true
			continue
		}
		online = append(online, c)
	}
	if len(online) == 0 {
		return
	}
	tw := s.spus.TotalShare()
	n := len(online)
	next := 0
	type claim struct {
		id   core.SPUID
		frac float64
	}
	var claims []claim
	for _, u := range users {
		exact := float64(n) * u.Share() / tw
		whole := int(exact)
		for i := 0; i < whole && next < n; i++ {
			online[next].home = u.ID()
			online[next].fixed = true
			next++
		}
		if f := exact - float64(whole); f > 1e-9 {
			claims = append(claims, claim{u.ID(), f})
		}
		u.SetEntitled(core.CPU, exact)
	}
	// Remaining CPUs rotate among fractional claimants.
	for ; next < n; next++ {
		online[next].fixed = false
		if len(claims) > 0 {
			online[next].home = claims[0].id
		}
	}
	// Re-homing a CPU that is running a now-foreign thread turns the
	// occupancy into a loan, revoked by the normal tick path. This is
	// what makes AssignHomes safe to re-run when SPUs are created,
	// destroyed, or suspended dynamically (§2.1). A CPU that becomes a
	// loan here without changing home (a ShareAll home's foreign
	// occupant) is stamped too: its revocation bound starts now.
	for _, c := range s.cpus {
		if c.cur != nil && c.cur.SPU != c.home && c.cur.SPU != core.KernelID && !c.loan {
			c.loan = true
			c.rehomed = s.eng.Now()
		}
	}
	for _, c := range claims {
		s.rotorFrac[c.id] = c.frac
		s.rotorCredit[c.id] = 0
	}
}

// SetLendPreference restricts the SPUs that owner will lend idle CPUs
// to. Calling with no borrowers removes the restriction (lend to
// anyone, the default). Lending still requires the owner's ShareIdle
// policy; the preference only narrows the recipients.
func (s *Scheduler) SetLendPreference(owner core.SPUID, borrowers ...core.SPUID) {
	if len(borrowers) == 0 {
		delete(s.lendPrefs, owner)
		return
	}
	set := make(map[core.SPUID]bool, len(borrowers))
	for _, b := range borrowers {
		set[b] = true
	}
	s.lendPrefs[owner] = set
}

// mayLend reports whether a CPU homed at owner may run a thread of
// borrower under the owner's lending preference.
func (s *Scheduler) mayLend(owner, borrower core.SPUID) bool {
	set, ok := s.lendPrefs[owner]
	if !ok {
		return true
	}
	return set[borrower]
}

// SetOffline takes a CPU out of (or returns it to) service. Offlining a
// busy CPU preempts its thread back onto the runqueue and tries to
// place it elsewhere. The caller is expected to re-run AssignHomes (and
// re-divide the other resources) so entitlements match the shrunken or
// regrown machine; kernel.Rebalance does both.
func (s *Scheduler) SetOffline(idx int, off bool) {
	c := s.cpus[idx]
	if c.offline == off {
		return
	}
	c.offline = off
	if off {
		t := c.cur
		if t != nil {
			s.preempt(c)
		}
		c.lastThread = nil // the cache does not survive the outage
		c.busyness.Set(s.eng.Now(), 0)
		if t != nil {
			s.tryDispatchThread(t)
		}
		return
	}
	s.dispatch(c)
}

// Offline reports whether the CPU is out of service.
func (s *Scheduler) Offline(idx int) bool { return s.cpus[idx].offline }

// OnlineCPUs returns how many CPUs are in service.
func (s *Scheduler) OnlineCPUs() int {
	n := 0
	for _, c := range s.cpus {
		if !c.offline {
			n++
		}
	}
	return n
}

// SetCPUSpeed makes a CPU a straggler: it executes at the given
// fraction of nominal speed (0 or 1 restores nominal; values above 1
// are allowed and make it faster). The current thread is preempted so
// accounting at the old speed is settled before the new speed applies.
func (s *Scheduler) SetCPUSpeed(idx int, speed float64) {
	if speed <= 0 {
		speed = 1
	}
	c := s.cpus[idx]
	if c.speed == speed {
		return
	}
	t := c.cur
	if t != nil {
		s.preempt(c)
	}
	c.speed = speed
	if t != nil {
		s.dispatch(c)
	}
}

// CPUSpeed returns the CPU's current speed factor.
func (s *Scheduler) CPUSpeed(idx int) float64 { return s.cpus[idx].speed }

// Homes returns the current home SPU of each CPU (for tests/reporting).
func (s *Scheduler) Homes() []core.SPUID {
	out := make([]core.SPUID, len(s.cpus))
	for i, c := range s.cpus {
		out[i] = c.home
	}
	return out
}

// rotate re-homes the non-fixed CPUs among SPUs with fractional
// entitlement, weighted by their fractions (largest accumulated credit
// first). Called from Tick.
func (s *Scheduler) rotate() {
	var rotatable []*cpu
	for _, c := range s.cpus {
		if !c.fixed && !c.offline {
			rotatable = append(rotatable, c)
		}
	}
	if len(rotatable) == 0 || len(s.rotorFrac) == 0 {
		return
	}
	// Accumulate each claimant's fractional credit, then give each
	// rotatable CPU to the claimant with the most credit (deterministic
	// tie-break by SPU ID), consuming one CPU-tick of credit.
	for id, f := range s.rotorFrac {
		s.rotorCredit[id] += f
	}
	for _, c := range rotatable {
		var best core.SPUID = -1
		var bestCredit float64
		for id, credit := range s.rotorCredit {
			if best == -1 || credit > bestCredit+1e-12 ||
				(credit > bestCredit-1e-12 && id < best) {
				best, bestCredit = id, credit
			}
		}
		if best == -1 {
			break
		}
		s.rotorCredit[best] = bestCredit - 1
		if s.rotorCredit[best] < 0 {
			s.rotorCredit[best] = 0
		}
		if c.home != best {
			c.home = best
			c.rehomed = s.eng.Now()
			// A re-homed CPU running a now-foreign thread treats it as a
			// loan, to be revoked by the normal path if the new home SPU
			// has work.
			if c.cur != nil && c.cur.SPU != best {
				c.loan = true
			}
		}
	}
}

// Wake makes a thread runnable and dispatches it if a CPU is available.
func (s *Scheduler) Wake(t *Thread) {
	if t.exited {
		panic("sched: waking an exited thread " + t.Name)
	}
	if t.Runnable() {
		return
	}
	if t.Remaining <= 0 {
		panic("sched: waking thread " + t.Name + " with no burst")
	}
	t.runnable = true
	t.readySince = s.eng.Now()
	if t.Prof != nil {
		t.Prof.To(profile.StateRunnable, s.cpuCulprit(t.SPU))
	}
	s.pushRunq(t)
	s.tryDispatchThread(t)
}

// cpuCulprit identifies the SPU to blame when a thread of victim has to
// wait for a CPU: whoever occupies a CPU the victim would otherwise be
// entitled to run on. Under ShareAll (the SMP single runqueue) every
// CPU is fair game, so the first foreign occupant is the culprit; under
// the isolating policies only a victim-homed CPU running a foreign
// thread (an outstanding loan) counts. If nobody foreign is in the way
// the wait is self-inflicted (victim's own threads saturate its share)
// and the victim itself is returned, which the profiler treats as
// no-theft. The index-order scan keeps attribution deterministic.
func (s *Scheduler) cpuCulprit(victim core.SPUID) core.SPUID {
	if s.spus.Get(victim).Policy() == core.ShareAll {
		for _, c := range s.cpus {
			if c.cur != nil && c.cur.SPU != victim {
				return c.cur.SPU
			}
		}
		return victim
	}
	for _, c := range s.cpus {
		if c.home == victim && c.cur != nil && c.cur.SPU != victim {
			return c.cur.SPU
		}
	}
	return victim
}

// Exit marks a thread permanently done; it must not be running.
func (s *Scheduler) Exit(t *Thread) {
	if t.running {
		panic("sched: exiting a running thread " + t.Name)
	}
	t.exited = true
	s.removeFromQueue(t)
}

func (s *Scheduler) removeFromQueue(t *Thread) {
	s.RunqLock.Acquire(t.SPU)
	q := s.rq(t.SPU)
	for i, x := range q {
		if x == t {
			s.runq[t.SPU] = append(q[:i], q[i+1:]...)
			break
		}
	}
	t.runnable = false
}

// tryDispatchThread finds a CPU for a newly-woken thread: first an idle
// home CPU, then (if some lender's policy permits) any idle foreign CPU,
// then — with IPI revocation enabled — a home CPU currently loaned out.
func (s *Scheduler) tryDispatchThread(t *Thread) {
	// Idle home CPU (kernel threads may run anywhere).
	for _, c := range s.cpus {
		if c.cur == nil && !c.offline && (c.home == t.SPU || t.SPU == core.KernelID || s.spus.Get(c.home).Policy() == core.ShareAll) {
			s.dispatch(c)
			if c.cur != nil {
				return
			}
		}
	}
	// Idle foreign CPU willing to lend (respecting the owner's lending
	// preference; the dispatch itself re-checks the loan rate limiter).
	for _, c := range s.cpus {
		if c.cur == nil && !c.offline && s.spus.Get(c.home).Policy() == core.ShareIdle &&
			s.mayLend(c.home, t.SPU) {
			s.dispatch(c)
			if c.cur != nil {
				return
			}
		}
	}
	// IPI revocation: take back a loaned home CPU immediately.
	if s.opts.IPIRevoke {
		for _, c := range s.cpus {
			if c.cur != nil && c.loan && c.home == t.SPU {
				s.preempt(c)
				s.Stat.Revocations++
				s.Metrics.Counter(metrics.KeySchedRevocations, c.home).Inc()
				// IPI revocation fires the moment the home thread wakes,
				// so the observed latency is how long it already waited.
				s.Metrics.Distribution(metrics.KeySchedRevokeLatency, c.home).
					ObserveTime(s.eng.Now() - t.readySince)
				c.lastRevoke = s.eng.Now()
				c.everRevoked = true
				if s.Trace != nil {
					s.Trace.Emitf(trace.Sched, fmt.Sprintf("cpu%d", c.idx), "revoke",
						"IPI for waking thread %s of spu%d", t.Name, t.SPU)
				}
				s.dispatch(c)
				if s.AuditHook != nil {
					s.AuditHook("revoke-ipi")
				}
				return
			}
		}
	}
}

// pickFor chooses the next thread for a CPU under the isolation rules:
// kernel threads first, then the home SPU's best thread; if the home SPU
// has nothing and its policy is ShareIdle, the best thread of any SPU
// (a loan); under ShareAll the home restriction does not exist.
func (s *Scheduler) pickFor(c *cpu) (*Thread, bool) {
	if t := s.best(core.KernelID); t != nil {
		return t, false
	}
	homePolicy := s.spus.Get(c.home).Policy()
	if homePolicy == core.ShareAll {
		// Global best across all SPUs: the SMP single runqueue.
		return s.bestAcross(func(core.SPUID) bool { return true }), false
	}
	if t := s.best(c.home); t != nil {
		return t, false
	}
	if homePolicy == core.ShareIdle {
		// Loan rate limiter (§3.1): a CPU whose loan was just revoked
		// declines to lend again until the interval passes.
		if s.opts.MinLoanInterval > 0 && c.everRevoked &&
			s.eng.Now()-c.lastRevoke < s.opts.MinLoanInterval {
			s.Stat.LoansDamped++
			return nil, false
		}
		bt := s.bestAcross(func(id core.SPUID) bool {
			return id != c.home && s.mayLend(c.home, id)
		})
		if bt != nil {
			return bt, true
		}
	}
	return nil, false
}

// bestAcross returns the best runnable thread among the SPUs accepted
// by the filter. SPUs are scanned in ID order — iterating the runqueue
// map directly would make exact priority ties (common when threads wake
// together) resolve by map order and break run-to-run determinism.
func (s *Scheduler) bestAcross(accept func(core.SPUID) bool) *Thread {
	var bt *Thread
	for _, u := range s.spus.All() {
		id := u.ID()
		if !accept(id) {
			continue
		}
		if t := s.best(id); t != nil && (bt == nil || t.pcpu < bt.pcpu ||
			(t.pcpu == bt.pcpu && t.readySince < bt.readySince)) {
			bt = t
		}
	}
	return bt
}

// best returns the highest-priority (lowest pcpu, FIFO on ties) runnable
// thread of an SPU without removing it. Gang members are never picked
// individually; they wait for the gang placement pass at the tick.
func (s *Scheduler) best(id core.SPUID) *Thread {
	var bt *Thread
	for _, t := range s.rq(id) {
		if t.gang != nil {
			continue
		}
		if bt == nil || t.pcpu < bt.pcpu || (t.pcpu == bt.pcpu && t.readySince < bt.readySince) {
			bt = t
		}
	}
	return bt
}

// dispatch fills an idle CPU. No-op if nothing is eligible.
func (s *Scheduler) dispatch(c *cpu) {
	if c.cur != nil || c.offline {
		return
	}
	t, loan := s.pickFor(c)
	if t == nil {
		c.busyness.Set(s.eng.Now(), 0)
		return
	}
	s.dispatchOn(c, t, loan)
}

// dispatchOn places a specific runnable thread on a specific idle CPU.
func (s *Scheduler) dispatchOn(c *cpu, t *Thread, loan bool) {
	s.removeFromQueue(t)
	now := s.eng.Now()
	// Cache pollution (§3.1): a cold cache — someone else ran here, or
	// the thread migrated — costs extra time re-fetching the working
	// set.
	if s.opts.CacheReload > 0 && c.lastThread != nil && c.lastThread != t {
		t.Remaining += s.opts.CacheReload
		s.Stat.CacheReloads++
	}
	c.lastThread = t
	t.running = true
	t.cpu = c.idx
	if t.Prof != nil {
		t.Prof.To(profile.StateRun, t.SPU)
	}
	c.cur = t
	c.loan = loan
	c.started = now
	c.busyness.Set(now, 1)
	s.Stat.Dispatches++
	if loan {
		s.Stat.Loans++
		s.Metrics.Counter(metrics.KeySchedLoans, t.SPU).Inc()
		if s.Trace != nil {
			s.Trace.Emitf(trace.Sched, fmt.Sprintf("cpu%d", c.idx), "loan",
				"thread %s of spu%d on cpu homed at spu%d", t.Name, t.SPU, c.home)
		}
		if s.AuditHook != nil {
			s.AuditHook("loan")
		}
	}

	run := DefaultSlice
	if t.Remaining < run {
		run = t.Remaining
	}
	// A straggler CPU (speed < 1) takes proportionally longer wall time
	// to deliver the same progress; accountRun scales it back.
	wall := run
	if c.speed != 1 {
		wall = sim.Time(float64(run) / c.speed)
		if wall < 1 {
			wall = 1
		}
	}
	c.sliceSeq++
	s.eng.AfterU64(wall, "sched.slice", s.sliceFn,
		(c.sliceSeq&sliceSeqMask)<<sliceCPUBits|uint64(c.idx))
}

// sliceEnd handles slice expiry or burst completion on a CPU.
func (s *Scheduler) sliceEnd(c *cpu) {
	t := c.cur
	if t == nil {
		return
	}
	s.accountRun(c)
	t.running = false
	t.cpu = -1
	c.cur = nil
	c.sliceSeq++ // no slice event is armed for this CPU any more
	if t.Remaining <= 0 {
		// Burst complete: the thread blocks (or re-arms itself from the
		// callback). Refill the CPU first so the callback sees current
		// machine state.
		s.dispatch(c)
		if t.BurstDone != nil {
			t.BurstDone()
		}
	} else {
		// Slice expired: back on the runqueue.
		t.runnable = true
		t.readySince = s.eng.Now()
		if t.Prof != nil {
			t.Prof.To(profile.StateRunnable, s.cpuCulprit(t.SPU))
		}
		s.pushRunq(t)
		s.Stat.Preemptions++
		s.dispatch(c)
	}
}

// preempt forcibly removes the current thread from a CPU mid-slice,
// putting it back on its runqueue.
func (s *Scheduler) preempt(c *cpu) {
	t := c.cur
	if t == nil {
		return
	}
	c.sliceSeq++ // invalidate the in-flight slice-end event
	s.accountRun(c)
	t.running = false
	t.cpu = -1
	t.runnable = true
	t.readySince = s.eng.Now()
	c.cur = nil
	c.loan = false
	if t.Prof != nil {
		t.Prof.To(profile.StateRunnable, s.cpuCulprit(t.SPU))
	}
	s.pushRunq(t)
	s.Stat.Preemptions++
}

// accountRun charges the time cur has spent on the CPU since dispatch.
func (s *Scheduler) accountRun(c *cpu) {
	t := c.cur
	now := s.eng.Now()
	ran := now - c.started
	c.started = now
	if ran <= 0 {
		return
	}
	// On a straggler, wall time on the CPU yields speed-scaled progress
	// against the burst (clamped to ≥ 1 ns so a preempt-redispatch cycle
	// cannot stall forever on rounding).
	progress := ran
	if c.speed != 1 {
		progress = sim.Time(float64(ran) * c.speed)
		if progress < 1 {
			progress = 1
		}
	}
	t.Remaining -= progress
	if t.Remaining < 0 {
		t.Remaining = 0
	}
	t.CPUTime += ran
	t.pcpu += ran.Seconds()
	pt := s.PerSPUTime[t.SPU]
	if pt == nil {
		var zero sim.Time
		pt = &zero
		s.PerSPUTime[t.SPU] = pt
	}
	*pt += ran
	c.busyness.Set(now, 1)
}

// Tick is the 10 ms clock tick: decay priorities, rotate fractional
// CPUs, revoke loans whose home SPU now has work, and refill idle CPUs.
func (s *Scheduler) Tick() {
	for _, q := range s.runq {
		for _, t := range q {
			t.pcpu *= priDecay
		}
	}
	for _, c := range s.cpus {
		if c.cur != nil {
			c.cur.pcpu *= priDecay
		}
	}

	s.rotate()

	// Revocation (§3.1): a loaned CPU is taken back at the tick if a
	// home-SPU thread is runnable and no home CPU is free to run it.
	for _, c := range s.cpus {
		if c.cur == nil || !c.loan {
			continue
		}
		if len(s.rq(c.home)) == 0 {
			continue
		}
		if s.homeHasIdleCPU(c.home) {
			continue
		}
		s.preempt(c)
		s.Stat.Revocations++
		s.Metrics.Counter(metrics.KeySchedRevocations, c.home).Inc()
		// Tick-granularity revocation latency: how long the home SPU's
		// oldest runnable thread has been waiting for its CPU back —
		// the ≤10 ms bound §3.1 argues for.
		if s.Metrics != nil {
			oldest := s.eng.Now()
			for _, t := range s.rq(c.home) {
				if t.readySince < oldest {
					oldest = t.readySince
				}
			}
			s.Metrics.Distribution(metrics.KeySchedRevokeLatency, c.home).
				ObserveTime(s.eng.Now() - oldest)
		}
		c.lastRevoke = s.eng.Now()
		c.everRevoked = true
		if s.Trace != nil {
			s.Trace.Emitf(trace.Sched, fmt.Sprintf("cpu%d", c.idx), "revoke",
				"tick revocation for spu%d", c.home)
		}
		s.dispatch(c)
		if s.AuditHook != nil {
			s.AuditHook("revoke")
		}
	}

	// Gang placement happens at tick granularity, before the general
	// refill so gangs get first pick of the idle CPUs.
	s.placeGangs()

	// Refill any idle CPUs (new lending opportunities since last event).
	for _, c := range s.cpus {
		if c.cur == nil {
			s.dispatch(c)
		}
	}

	// Release finished CPU-usage accounting: recompute used levels from
	// scratch so they reflect the instantaneous picture.
	s.recomputeCPULevels()
}

// homeHasIdleCPU reports whether some CPU homed at id is idle.
func (s *Scheduler) homeHasIdleCPU(id core.SPUID) bool {
	for _, c := range s.cpus {
		if c.home == id && c.cur == nil && !c.offline {
			return true
		}
	}
	return false
}

// recomputeCPULevels sets each SPU's used CPU level to the number of
// CPUs its threads currently occupy.
func (s *Scheduler) recomputeCPULevels() {
	for i := range s.cpuCounts {
		s.cpuCounts[i] = 0
	}
	for _, c := range s.cpus {
		if c.cur == nil {
			continue
		}
		for int(c.cur.SPU) >= len(s.cpuCounts) {
			s.cpuCounts = append(s.cpuCounts, 0)
		}
		s.cpuCounts[c.cur.SPU]++
	}
	for _, u := range s.spus.All() {
		cur := u.Used(core.CPU)
		var want float64
		if id := int(u.ID()); id < len(s.cpuCounts) {
			want = float64(s.cpuCounts[id])
		}
		if cur != want {
			u.Charge(core.CPU, want-cur)
		}
	}
}

// Utilization returns the machine-wide CPU utilization so far.
func (s *Scheduler) Utilization() float64 {
	var sum float64
	for _, c := range s.cpus {
		sum += c.busyness.Average(s.eng.Now())
	}
	return sum / float64(len(s.cpus))
}

// IdleCPUs returns how many CPUs are idle right now.
func (s *Scheduler) IdleCPUs() int {
	n := 0
	for _, c := range s.cpus {
		if c.cur == nil && !c.offline {
			n++
		}
	}
	return n
}

// RunqueueLen returns the number of runnable (not running) threads.
func (s *Scheduler) RunqueueLen() int {
	n := 0
	for _, q := range s.runq {
		n += len(q)
	}
	return n
}

// Audit verifies scheduler consistency: CPU/thread linkage, queue
// state flags, and that no thread is both queued and running. It
// returns the first violation found.
func (s *Scheduler) Audit() error {
	for _, c := range s.cpus {
		if c.cur == nil {
			continue
		}
		if !c.cur.running || c.cur.cpu != c.idx {
			return fmt.Errorf("sched audit: cpu%d runs %q with state running=%v cpu=%d",
				c.idx, c.cur.Name, c.cur.running, c.cur.cpu)
		}
		if c.cur.exited {
			return fmt.Errorf("sched audit: cpu%d runs exited thread %q", c.idx, c.cur.Name)
		}
	}
	for i, q := range s.runq {
		id := core.SPUID(i)
		for _, t := range q {
			if t.SPU != id {
				return fmt.Errorf("sched audit: thread %q of spu%d on spu%d queue", t.Name, t.SPU, id)
			}
			if !t.runnable || t.running {
				return fmt.Errorf("sched audit: queued thread %q has runnable=%v running=%v",
					t.Name, t.runnable, t.running)
			}
			if t.exited {
				return fmt.Errorf("sched audit: exited thread %q still queued", t.Name)
			}
		}
	}
	return nil
}
