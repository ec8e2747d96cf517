package mem

import (
	"fmt"

	"perfiso/internal/control"
	"perfiso/internal/core"
	"perfiso/internal/metrics"
	"perfiso/internal/trace"
)

// kickReclaim runs the pager: it enforces allowed limits (revocation),
// performs page replacement for SPUs thrashing against their own limit,
// and falls back to global LRU reclaim when the machine itself is out of
// frames. It is triggered by allocation denials and by the policy tick.
func (m *Manager) kickReclaim() {
	if m.reclaiming {
		return
	}
	m.reclaiming = true
	defer func() { m.reclaiming = false }()

	// 1. Revocation: any user SPU holding more than its allowed level
	// must give the excess back (§2.3). This happens when the sharing
	// policy lowers a borrower's allowed limit.
	for _, s := range m.spus.Users() {
		if s.Policy() == core.ShareAll {
			continue
		}
		over := int(s.Used(core.Memory) - s.Allowed(core.Memory))
		for i := 0; i < over; i++ {
			if !m.evictFromSPU(s.ID()) {
				break
			}
		}
	}

	// 2. If the free pool is exhausted and SPUs below their entitlement
	// are waiting, revoke loans from borrowers first.
	if m.FreePages() <= 0 && m.waitersUnderEntitled() {
		m.revokeLoans(len(m.waiters))
	}

	// 3. Page replacement: a waiter blocked by its own SPU's limit gets
	// one of that SPU's own pages evicted so it can proceed — the
	// within-SPU thrashing a too-small share produces.
	for _, w := range m.waiters {
		s := m.spus.Get(w.spu)
		if s.Policy() == core.ShareAll {
			continue
		}
		if s.Used(core.Memory) >= s.Allowed(core.Memory) && s.Used(core.Memory) > 0 {
			m.evictFromSPU(s.ID())
		}
	}

	// 4. Global fallback: machine out of frames but waiters remain
	// (unconstrained SMP sharing, or shared/kernel growth). Evict the
	// least-recently-used pages regardless of owner.
	guard := len(m.waiters)
	for m.FreePages() <= 0 && len(m.waiters) > 0 && guard > 0 {
		if !m.evictAny() {
			break
		}
		guard--
	}

	// 5. Frame loss (RemoveFrames drove the free count negative): evict
	// until the books balance, waiters or not. Each eviction frees a
	// frame now (clean) or when its write-back lands (dirty), so one
	// pass of deficit evictions suffices — looping on FreePages() would
	// spin on in-flight dirty pages.
	if deficit := -m.FreePages(); deficit > 0 {
		for i := 0; i < deficit; i++ {
			if !m.evictAny() {
				break
			}
		}
	}
}

// waitersUnderEntitled reports whether any queued waiter belongs to an
// SPU using less than its entitlement — the signal that loaned resources
// must come back.
func (m *Manager) waitersUnderEntitled() bool {
	for _, w := range m.waiters {
		if !w.spu.IsUser() {
			continue
		}
		s := m.spus.Get(w.spu)
		if s.Used(core.Memory) < s.Entitled(core.Memory) {
			return true
		}
	}
	return false
}

// revokeLoans lowers borrowers' allowed levels back toward their
// entitlement, most-borrowed first, until roughly needed pages' worth of
// loans have been called in, then evicts the resulting excess.
func (m *Manager) revokeLoans(needed int) {
	type borrower struct {
		s    *core.SPU
		over int
	}
	var bs []borrower
	for _, s := range m.spus.Users() {
		if s.Policy() != core.ShareIdle {
			continue
		}
		over := int(s.Used(core.Memory) - s.Entitled(core.Memory))
		if over > 0 && s.Allowed(core.Memory) > s.Entitled(core.Memory) {
			bs = append(bs, borrower{s, over})
		}
	}
	for needed > 0 && len(bs) > 0 {
		// Take from the biggest borrower.
		bi := 0
		for i := range bs {
			if bs[i].over > bs[bi].over {
				bi = i
			}
		}
		b := bs[bi]
		take := needed
		if take > b.over {
			take = b.over
		}
		target := b.s.Allowed(core.Memory) - float64(take)
		if ent := b.s.Entitled(core.Memory); target < ent {
			target = ent
		}
		b.s.SetAllowed(core.Memory, target)
		if m.Trace != nil {
			m.Trace.Emitf(trace.Mem, fmt.Sprintf("spu%d", b.s.ID()), "revoke-loan",
				"%d pages (allowed now %.0f)", take, target)
		}
		needed -= take
		bs = append(bs[:bi], bs[bi+1:]...)
	}
	// Enforce the lowered limits.
	for _, s := range m.spus.Users() {
		over := int(s.Used(core.Memory) - s.Allowed(core.Memory))
		for i := 0; i < over; i++ {
			if !m.evictFromSPU(s.ID()) {
				break
			}
		}
	}
	m.auditBoundary("revoke-loan")
}

// evictFromSPU evicts the least-recently-used unpinned page owned by the
// SPU: the top of one of its own reclaim heaps.
func (m *Manager) evictFromSPU(spu core.SPUID) bool {
	if int(spu) >= len(m.perSPU) {
		return false
	}
	return m.evictVictim(lruVictim(m.perSPU[spu : spu+1]))
}

// evictAny evicts the least-recently-used unpinned page regardless of
// owner: the least of every SPU's heap tops.
func (m *Manager) evictAny() bool {
	return m.evictVictim(lruVictim(m.perSPU))
}

// evictVictim evicts the chosen page and returns false when there is
// none. Dirty write-back goes through the pageout function; the frame
// frees when the write completes — the revocation cost the Reserve
// Threshold hides (§3.2).
func (m *Manager) evictVictim(victim *Page) bool {
	if victim == nil {
		return false
	}
	m.Stat.Evictions++
	m.Metrics.Counter(metrics.KeyMemReclaims, victim.SPU).Inc()
	if m.Trace != nil {
		m.Trace.Emitf(trace.Mem, fmt.Sprintf("spu%d", victim.SPU), "evict",
			"%s page, dirty=%v", victim.Kind, victim.dirty)
	}
	if victim.Owner != nil {
		victim.Owner.PageEvicted(victim)
	}
	if victim.dirty && m.pageout != nil {
		m.Stat.DirtyWrites++
		m.Metrics.Counter(metrics.KeyMemDirtyWrites, victim.SPU).Inc()
		victim.evicting = true
		m.unlink(victim)
		m.inFlight++
		// Retry failed write-backs (degraded disk) with exponential
		// backoff under a deadline-aware budget: the frame stays in
		// flight — charged and unusable — until the data really is on
		// stable storage, but once the budget is spent the retries
		// throttle to the slow-lane cadence so a long disk fault cannot
		// turn reclaim into a full-rate retry storm. (The pageout hook
		// itself reroutes swap writes around breaker-open disks.)
		budget := control.NewBudget()
		var onDone func(ok bool)
		onDone = func(ok bool) {
			if !ok {
				m.Stat.PageoutRetries++
				wait, degraded := budget.Next()
				if degraded {
					m.Stat.PageoutClamped++
					m.Metrics.Counter(metrics.KeyControlClamped, victim.SPU).Inc()
				}
				m.Metrics.Counter(metrics.KeyMemPageoutRetries, victim.SPU).Inc()
				m.Metrics.Counter(metrics.KeyMemBackoffNS, victim.SPU).AddTime(wait)
				if m.Trace != nil {
					m.Trace.Emitf(trace.Mem, fmt.Sprintf("spu%d", victim.SPU), "pageout-retry",
						"write-back failed, retrying in %v", wait)
				}
				m.eng.After(wait, "mem.pageout-retry", func() { m.pageout(victim, onDone) })
				return
			}
			m.inFlight--
			m.spus.Get(victim.SPU).Charge(core.Memory, -1)
			m.Stat.FreePages.Set(m.eng.Now(), float64(m.FreePages()))
			m.serveWaiters()
		}
		m.pageout(victim, onDone)
		return true
	}
	if victim.dirty {
		m.Stat.DirtyWrites++
		m.Metrics.Counter(metrics.KeyMemDirtyWrites, victim.SPU).Inc()
	}
	m.Free(victim)
	return true
}
