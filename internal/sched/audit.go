package sched

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"perfiso/internal/core"
	"perfiso/internal/sim"
	"perfiso/internal/snap"
)

// AuditInvariants extends Audit with the conservation and isolation
// invariants the paper's CPU-management claims rest on (§3.1). It is
// read-only and returns the first violation found:
//
//   - structural isolation: a busy CPU runs its home SPU's thread, a
//     kernel thread, or — only when flagged as a loan or homed at a
//     ShareAll SPU — a foreign thread. Foreign occupancy that is not a
//     loan is untracked sharing and would be unrevocable.
//   - loan revocability: a loaned CPU whose home SPU has had a runnable
//     (non-gang) thread waiting longer than two ticks, with no idle home
//     CPU, means tick revocation failed its ≤10 ms latency bound. Two
//     ticks, not one, so a thread that became ready an instant after a
//     tick is not a false positive.
//   - CPU-time conservation: the per-SPU CPU-time ledger plus in-flight
//     (currently-running, not yet accounted) time never exceeds elapsed
//     machine capacity, and agrees with the independently-maintained
//     per-CPU busy-time integrals to float tolerance.
//   - entitlement ceiling: an isolated (ShareNone) SPU occupies at most
//     ceil(entitlement)+1 of its own home CPUs — its integral share,
//     the fractional CPU the rotor may grant, and one CPU of transient
//     slack for a grant still being rotated away.
func (s *Scheduler) AuditInvariants() error {
	if err := s.Audit(); err != nil {
		return err
	}
	now := s.eng.Now()

	// One pass over the CPUs checks structural isolation and gathers
	// the in-flight time, busy-time integral and home occupancy the
	// conservation and ceiling laws below read.
	var inflight sim.Time
	var busyArea float64
	homeBusy := s.homeBusy[:0]
	for _, c := range s.cpus {
		busyArea += c.busyness.Area(now)
		if c.cur == nil {
			continue
		}
		if c.offline {
			return fmt.Errorf("sched audit: offline cpu%d is running %q", c.idx, c.cur.Name)
		}
		inflight += now - c.started
		id := c.cur.SPU
		if id == c.home {
			for int(id) >= len(homeBusy) {
				homeBusy = append(homeBusy, 0)
			}
			homeBusy[id]++
			continue
		}
		if id == core.KernelID || c.loan {
			continue
		}
		if s.spus.Get(c.home).Policy() != core.ShareAll {
			return fmt.Errorf("sched audit: cpu%d (home spu%d, policy %v) runs foreign thread %q of spu%d without a loan flag",
				c.idx, c.home, s.spus.Get(c.home).Policy(), c.cur.Name, id)
		}
	}
	s.homeBusy = homeBusy

	for _, c := range s.cpus {
		if c.cur == nil || !c.loan || s.homeHasIdleCPU(c.home) {
			continue
		}
		for _, t := range s.rq(c.home) {
			if t.gang != nil {
				continue // gangs wait for whole-gang placement by design
			}
			// The wait counts from when the CPU last became this SPU's
			// home, not from readySince: a fault-driven AssignHomes can
			// hand a loaned CPU to an SPU whose threads were already
			// waiting, and the revocation bound only holds from that
			// hand-over.
			since := t.readySince
			if c.rehomed > since {
				since = c.rehomed
			}
			if wait := now - since; wait > 2*TickPeriod {
				return fmt.Errorf("sched audit: cpu%d still loaned to spu%d while home spu%d thread %q has waited %s (revocation bound is one tick)",
					c.idx, c.cur.SPU, c.home, t.Name, wait)
			}
		}
	}

	var accounted sim.Time
	for _, t := range s.cpuTime {
		accounted += t
	}
	capacity := sim.Time(len(s.cpus)) * now
	if accounted+inflight > capacity {
		return fmt.Errorf("sched audit: per-SPU CPU time %s + in-flight %s exceeds elapsed capacity %s",
			accounted, inflight, capacity)
	}
	ledger := (accounted + inflight).Seconds()
	tol := 1e-6 * (1 + now.Seconds()*float64(len(s.cpus)))
	if d := busyArea - ledger; d > tol || d < -tol {
		return fmt.Errorf("sched audit: busy-time integral %.9gs disagrees with per-SPU ledger %.9gs (delta %.3gs)",
			busyArea, ledger, d)
	}

	for _, u := range s.spus.Users() {
		if u.Policy() != core.ShareNone || int(u.ID()) >= len(homeBusy) {
			continue
		}
		limit := int(math.Ceil(u.Entitled(core.CPU)-1e-9)) + 1
		if got := homeBusy[u.ID()]; got > limit {
			return fmt.Errorf("sched audit: isolated spu%d occupies %d home CPUs, above its entitlement ceiling %d (entitled %.3f)",
				u.ID(), got, limit, u.Entitled(core.CPU))
		}
	}
	return nil
}

// Snapshot writes the scheduler's state for checkpoint comparison:
// counters, the per-SPU CPU-time ledger, rotor credit, per-CPU
// occupancy, and the runqueues in queue order.
func (s *Scheduler) Snapshot(enc *snap.Encoder) {
	now := s.eng.Now()
	enc.Section("sched")
	enc.Int("dispatches", s.Stat.Dispatches)
	enc.Int("preemptions", s.Stat.Preemptions)
	enc.Int("loans", s.Stat.Loans)
	enc.Int("revocations", s.Stat.Revocations)
	enc.Int("gang_placements", s.Stat.GangPlacements)
	enc.Int("cache_reloads", s.Stat.CacheReloads)
	enc.Int("loans_damped", s.Stat.LoansDamped)
	for id, t := range s.cpuTime {
		// Only charged SPUs appear; every charge is positive.
		if t != 0 {
			enc.Int(fmt.Sprintf("time_spu%d", id), int64(t))
		}
	}
	for _, id := range sortedSPUIDs(s.rotorCredit) {
		enc.Float(fmt.Sprintf("rotor_spu%d", id), s.rotorCredit[id])
	}
	for i, c := range s.cpus {
		cur := "-"
		if c.cur != nil {
			cur = c.cur.Name
		}
		enc.Str(fmt.Sprintf("cpu%d", i), fmt.Sprintf(
			"home=%d fixed=%t loan=%t offline=%t speed=%s cur=%s started=%d busy=%s",
			c.home, c.fixed, c.loan, c.offline,
			strconv.FormatFloat(c.speed, 'g', -1, 64), cur, int64(c.started),
			strconv.FormatFloat(c.busyness.Area(now), 'g', -1, 64)))
	}
	for id, q := range s.runq {
		if len(q) == 0 {
			continue
		}
		names := make([]string, len(q))
		for i, t := range q {
			names[i] = t.Name
		}
		enc.Str(fmt.Sprintf("runq_spu%d", id), strings.Join(names, ","))
	}
}

// sortedSPUIDs returns a map's SPU-ID keys in ascending order, so map
// iteration never leaks nondeterminism into snapshots.
func sortedSPUIDs[V any](m map[core.SPUID]V) []core.SPUID {
	ids := make([]core.SPUID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
