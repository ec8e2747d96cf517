// Package mem implements the physical memory manager with per-SPU
// isolation and sharing (§3.2 of the paper).
//
// Every page frame is charged to an SPU. An SPU may not use more frames
// than its allowed level; a request beyond the limit is denied and the
// requester waits while the reclaim path evicts pages (writing dirty ones
// to disk through a kernel-supplied pageout function). A sharing policy
// periodically redistributes idle pages — the total free pages less a
// Reserve Threshold (8 % of memory, the value IRIX uses to decide it is
// low on memory) — to SPUs under memory pressure by raising their allowed
// levels, and revokes the loans when the owners need the pages back.
//
// Pages accessed by more than one SPU are re-tagged to the shared SPU,
// and kernel pages to the kernel SPU; only the remaining frames are
// divided among user SPUs (§2.2), which the policy tick re-evaluates.
package mem

import (
	"fmt"

	"perfiso/internal/core"
	"perfiso/internal/lock"
	"perfiso/internal/metrics"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
	"perfiso/internal/trace"
)

// PageSize is the simulated page size in bytes.
const PageSize = 4096

// SectorsPerPage is how many 512-byte disk sectors one page occupies.
const SectorsPerPage = PageSize / 512

// DefaultReserve is the Reserve Threshold fraction: 8 % of total memory,
// the value the paper chose because IRIX uses it to decide it is running
// low on memory (§3.2).
const DefaultReserve = 0.08

// Kind classifies what a page frame is used for.
type Kind int

const (
	// Anon is process anonymous memory (heap, stack, data).
	Anon Kind = iota
	// Cache is file buffer-cache or file meta-data memory; the paper
	// charges these to the SPU that caused them (§3.2).
	Cache
	// Kernel is kernel code/data, always charged to the kernel SPU.
	Kernel
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Anon:
		return "anon"
	case Cache:
		return "cache"
	default:
		return "kernel"
	}
}

// Owner is the object a page belongs to (a process resident set or a
// buffer-cache entry). The manager calls Evicted when it reclaims the
// page; the owner must forget the page and fault it back in later if
// needed.
type Owner interface {
	PageEvicted(p *Page)
}

// Page is one physical page frame in use. Its fields are ordered to
// keep it at 80 bytes, the size class it allocates from.
type Page struct {
	SPU     core.SPUID
	Kind    Kind
	LastUse sim.Time
	Owner   Owner

	seq      uint64      // allocation sequence; LRU tie-break after the last use
	hkey     sim.Time    // effective last use when last keyed in its reclaim heap
	ws       *WorkingSet // the set the page is bound to, or nil
	index    int32       // position in Manager.pages, -1 when free
	heapIdx  int32       // position in its SPU's reclaim heap, -1 when in none
	slot     int32       // position in ws.slots while bound
	dirty    bool
	pinned   bool // never evicted while pinned (e.g. in-flight disk IO)
	evicting bool
	retagged bool // re-tagged to the shared SPU by a second SPU's touch
}

// Pinned reports whether the page is exempt from eviction (e.g. its
// frame is the target of in-flight disk IO). Set through
// Manager.SetPinned.
func (p *Page) Pinned() bool { return p.pinned }

// PageoutFunc writes a dirty page's contents to backing store and calls
// done when the write completes, with ok=false if the write failed (a
// degraded disk); the manager retries failed pageouts with backoff. The
// kernel wires this to the right disk; tests may complete synchronously.
type PageoutFunc func(p *Page, done func(ok bool))

// waiter is a pending allocation that could not be satisfied.
type waiter struct {
	spu   core.SPUID
	kind  Kind
	owner Owner
	fn    func(*Page)
}

// Stats aggregates memory-manager statistics.
type Stats struct {
	Allocations    int64
	Denials        int64 // allocation attempts denied (limit or no memory)
	Evictions      int64
	DirtyWrites    int64
	PageoutRetries int64 // failed pageout writes retried with backoff
	PageoutClamped int64 // pageout retries throttled to the slow lane (budget spent)
	Retags         int64 // pages re-tagged to the shared SPU
	FreePages      stats.TimeWeighted
	WaitQueueLen   stats.TimeWeighted
}

// Manager is the physical memory manager for one machine.
type Manager struct {
	eng   *sim.Engine
	spus  *core.Manager
	total int // total page frames

	reserve float64 // fraction of total kept free (Reserve Threshold)
	pageout PageoutFunc

	pages    []*Page    // frames currently in use
	perSPU   []spuPages // the linked frames' counts and reclaim heaps per owning SPU (index = SPUID)
	pseq     uint64     // allocation sequence for LRU tie-breaking
	inFlight int        // frames being evicted (still counted as used)
	waiters  []waiter
	pressure []bool // SPUs that hit their limit since last policy tick (index = SPUID)

	// prevAllowed is redivide's per-tick scratch, reused so the policy
	// tick stays allocation-free.
	prevAllowed []float64

	reclaiming bool // reentrancy guards: eviction frees pages, which
	serving    bool // serves waiters, which may allocate and deny again

	Stat Stats
	// Trace, when non-nil, records evictions and policy decisions.
	Trace *trace.Tracer
	// Metrics, when non-nil, receives per-SPU reclaim, dirty-write, and
	// pageout-retry counters. Nil costs nothing.
	Metrics *metrics.Registry
	// AuditHook, when non-nil, runs after loan revocations, policy
	// ticks, and fault-driven frame-count changes so the invariant
	// auditor can check frame conservation at every sharing boundary.
	// The hook must only read manager state.
	AuditHook func(reason string)

	// FrameLock, when non-nil, is the accounting-only model of the
	// frame-pool lock a real kernel takes around allocation and free:
	// one shared gate is the coarse global free-list lock, per-SPU
	// gates model per-SPU pools. It records serialization (and
	// cross-SPU lock theft, under a shared gate) without perturbing
	// timing. Nil costs one branch per pool operation.
	FrameLock *lock.GateSet
}

// NewManager creates a memory manager with the given number of page
// frames. reserve <= 0 selects DefaultReserve.
func NewManager(eng *sim.Engine, spus *core.Manager, totalPages int, reserve float64) *Manager {
	if totalPages <= 0 {
		panic(fmt.Sprintf("mem: totalPages = %d", totalPages))
	}
	if reserve <= 0 {
		reserve = DefaultReserve
	}
	m := &Manager{
		eng:     eng,
		spus:    spus,
		total:   totalPages,
		reserve: reserve,
	}
	m.Stat.FreePages.Set(eng.Now(), float64(totalPages))
	return m
}

// SetPageout installs the dirty-page write-back function.
func (m *Manager) SetPageout(fn PageoutFunc) { m.pageout = fn }

// TotalPages returns the configured number of frames.
func (m *Manager) TotalPages() int { return m.total }

// UsedPages returns the number of frames in use (including frames whose
// eviction write-back is still in flight).
func (m *Manager) UsedPages() int { return len(m.pages) + m.inFlight }

// FreePages returns the number of frames immediately available.
func (m *Manager) FreePages() int { return m.total - m.UsedPages() }

// ReservePages returns the Reserve Threshold in pages.
func (m *Manager) ReservePages() int { return int(m.reserve * float64(m.total)) }

// RemoveFrames takes n frames out of service (fault injection: failed
// DIMMs, or a pressure spike from outside the model). The free count
// may go negative; the pager immediately evicts to rebalance the books,
// and allocations are denied until it succeeds. The caller should
// re-divide entitlements afterwards (kernel.Rebalance does).
func (m *Manager) RemoveFrames(n int) {
	if n <= 0 {
		return
	}
	if n >= m.total {
		n = m.total - 1 // never remove the whole machine
	}
	m.total -= n
	m.Stat.FreePages.Set(m.eng.Now(), float64(m.FreePages()))
	m.kickReclaim()
	m.auditBoundary("remove-frames")
}

// AddFrames returns n frames to service, waking any queued waiters.
func (m *Manager) AddFrames(n int) {
	if n <= 0 {
		return
	}
	m.total += n
	m.Stat.FreePages.Set(m.eng.Now(), float64(m.FreePages()))
	m.serveWaiters()
	m.auditBoundary("add-frames")
}

// DivideAmongSPUs recomputes user SPUs' entitled/allowed memory from the
// frames not consumed by the kernel and shared SPUs (§2.2, §3.2). The
// kernel calls this at boot and from the policy tick.
func (m *Manager) DivideAmongSPUs() {
	overhead := int(m.spus.Kernel().Used(core.Memory) + m.spus.Shared().Used(core.Memory))
	avail := m.total - overhead
	if avail < 0 {
		avail = 0
	}
	m.spus.DivideIntegral(core.Memory, avail)
}

// Allocate tries to allocate one frame for the SPU. It returns nil when
// the SPU is at its allowed limit or the machine is out of frames; in
// that case the caller should use Request to wait.
func (m *Manager) Allocate(spu core.SPUID, kind Kind, owner Owner) *Page {
	m.FrameLock.Acquire(spu)
	s := m.spus.Get(spu)
	if kind == Kernel {
		s = m.spus.Kernel()
	}
	if m.FreePages() <= 0 || !s.CanUse(core.Memory, 1) {
		m.Stat.Denials++
		if spu.IsUser() {
			m.pressure[m.slot(spu)] = true
		}
		m.kickReclaim()
		return nil
	}
	p := &Page{SPU: s.ID(), Kind: kind, LastUse: m.eng.Now(), Owner: owner, seq: m.pseq, index: int32(len(m.pages))}
	m.pseq++
	m.pages = append(m.pages, p)
	m.linkSPU(p)
	s.Charge(core.Memory, 1)
	m.Stat.Allocations++
	m.Stat.FreePages.Set(m.eng.Now(), float64(m.FreePages()))
	return p
}

// Request allocates a frame, delivering it through fn. If no frame is
// available now, the request queues and fn runs later, when reclaim or a
// loan makes a frame available. Waiters are served FIFO.
func (m *Manager) Request(spu core.SPUID, kind Kind, owner Owner, fn func(*Page)) {
	if p := m.Allocate(spu, kind, owner); p != nil {
		fn(p)
		return
	}
	m.waiters = append(m.waiters, waiter{spu: spu, kind: kind, owner: owner, fn: fn})
	m.Stat.WaitQueueLen.Set(m.eng.Now(), float64(len(m.waiters)))
	// Now that the waiter is visible, run the pager so replacement or
	// revocation can free a frame for it.
	m.kickReclaim()
	m.serveWaiters()
}

// Release frees a frame if it is still held, and is a no-op if the
// frame was already freed or is mid-eviction. Process exit uses this:
// freeing one page can wake waiters whose allocations trigger reclaim,
// which may concurrently take other pages of the same exiting process.
func (m *Manager) Release(p *Page) {
	if p.index < 0 {
		return
	}
	m.Free(p)
}

// Free releases a frame back to the pool.
func (m *Manager) Free(p *Page) {
	if p.index < 0 {
		panic("mem: double free")
	}
	m.FrameLock.Acquire(p.SPU)
	m.unlink(p)
	m.spus.Get(p.SPU).Charge(core.Memory, -1)
	m.Stat.FreePages.Set(m.eng.Now(), float64(m.FreePages()))
	m.serveWaiters()
}

// unlink removes the page from the in-use list and its SPU's counts
// and reclaim heap. A bound page leaves use only through its owner's
// eviction callback or a detach, both of which unbind it first.
func (m *Manager) unlink(p *Page) {
	if p.ws != nil {
		panic("mem: page leaves use while bound to a working set")
	}
	last := len(m.pages) - 1
	i := p.index
	m.pages[i] = m.pages[last]
	m.pages[i].index = i
	m.pages = m.pages[:last]
	p.index = -1
	m.unlinkSPU(p)
}

// slot returns the per-SPU array index for the SPU, growing the arrays
// on first sight of a new id.
func (m *Manager) slot(id core.SPUID) int {
	i := int(id)
	for len(m.perSPU) <= i {
		m.perSPU = append(m.perSPU, spuPages{})
		m.pressure = append(m.pressure, false)
	}
	return i
}

// linkSPU adds the page to its SPU's counts and, unless pinned, to the
// reclaim heap matching its dirty flag. The counts and heaps cover
// linked pages only: a frame mid-eviction is unlinked and tracked by
// inFlight.
func (m *Manager) linkSPU(p *Page) {
	s := &m.perSPU[m.slot(p.SPU)]
	s.owned++
	if p.dirty {
		s.dirty++
	}
	if p.pinned {
		s.pinned++
	} else {
		s.lru(p.dirty).push(p)
	}
}

// unlinkSPU removes the page from its SPU's counts and reclaim heap.
func (m *Manager) unlinkSPU(p *Page) {
	s := &m.perSPU[m.slot(p.SPU)]
	s.owned--
	if p.dirty {
		s.dirty--
	}
	if p.pinned {
		s.pinned--
	} else {
		s.lru(p.dirty).remove(p)
	}
}

// Touch records a use of the page by the given SPU at the current time.
// A user page touched by a second user SPU is re-tagged to the shared
// SPU, so its cost is borne by everyone (§3.2). The reclaim heap is not
// touched: the clock never runs backwards, so LastUse only rises and
// the heap re-keys the page when it surfaces at the top.
func (m *Manager) Touch(p *Page, by core.SPUID) {
	p.LastUse = m.eng.Now()
	if p.index < 0 || !by.IsUser() || !p.SPU.IsUser() || p.SPU == by {
		return
	}
	m.spus.Get(p.SPU).Charge(core.Memory, -1)
	m.spus.Shared().Charge(core.Memory, 1)
	m.unlinkSPU(p)
	p.SPU = core.SharedID
	p.retagged = true
	m.linkSPU(p)
	m.Stat.Retags++
}

// MarkDirty flags the page as needing write-back before reuse.
func (m *Manager) MarkDirty(p *Page) { m.SetDirty(p, true) }

// SetDirty sets or clears the page's dirty flag, keeping the per-SPU
// dirty counters and reclaim heaps exact.
func (m *Manager) SetDirty(p *Page, v bool) {
	if p.dirty == v {
		return
	}
	if p.index < 0 {
		p.dirty = v
		return
	}
	m.unlinkSPU(p)
	p.dirty = v
	m.linkSPU(p)
}

// SetPinned pins or unpins the page. A pinned page is never evicted —
// in-flight disk IO targets its frame — so it leaves the reclaim heaps
// until unpinned.
func (m *Manager) SetPinned(p *Page, v bool) {
	if p.pinned == v {
		return
	}
	if p.index < 0 {
		p.pinned = v
		return
	}
	m.unlinkSPU(p)
	p.pinned = v
	m.linkSPU(p)
}

// Culprit identifies the SPU to blame when victim stalls waiting for
// frames, for the profiler's interference matrix. Under ShareAll no
// per-SPU limits exist, so the biggest frame holder other than the
// victim is in the way; under the isolating policies only an SPU using
// more than its entitlement (frames on loan that reclaim must claw
// back) can be blamed. If nobody qualifies the stall is self-inflicted
// and the victim itself is returned, which the profiler treats as
// no-theft. Deterministic: Users() iterates in creation order and ties
// keep the first maximum.
func (m *Manager) Culprit(victim core.SPUID) core.SPUID {
	shareAll := m.spus.Get(victim).Policy() == core.ShareAll
	best := victim
	var bestScore float64
	for _, u := range m.spus.Users() {
		if u.ID() == victim {
			continue
		}
		score := u.Used(core.Memory)
		if !shareAll {
			score -= u.Entitled(core.Memory)
		}
		if score > bestScore {
			best, bestScore = u.ID(), score
		}
	}
	return best
}

// Waiters returns the number of queued allocation requests.
func (m *Manager) Waiters() int { return len(m.waiters) }

// Pressured reports whether the SPU has hit its memory limit since the
// last policy tick.
func (m *Manager) Pressured(spu core.SPUID) bool {
	return int(spu) < len(m.pressure) && m.pressure[spu]
}

// Audit verifies the manager's internal consistency the slow, exhaustive
// way: page-list linkage, working-set binding (a bound page is
// anonymous, was never re-tagged, and sits at its own slot), the
// reclaim heaps (every slot's position, the heap order, keys that never
// exceed the effective last use, and exactly the SPU's unpinned pages,
// each in the heap matching its dirty flag), agreement between the scan
// and the incremental counters the fast path trusts, frame
// conservation, and charge/ownership agreement. It returns a
// descriptive error on the first violation. Intended for tests, the
// stress harness, and the final sweep; it is O(pages). The per-tick
// sweep uses auditFast.
func (m *Manager) Audit() error {
	for i, p := range m.pages {
		if int(p.index) != i {
			return fmt.Errorf("mem audit: page at slot %d has index %d", i, p.index)
		}
		if w := p.ws; w != nil {
			switch {
			case p.Kind != Anon:
				return fmt.Errorf("mem audit: %s page at slot %d is bound to a working set", p.Kind, i)
			case p.retagged:
				return fmt.Errorf("mem audit: page at slot %d is bound to a working set but was re-tagged", i)
			case p.slot < 0 || int(p.slot) >= len(w.slots) || w.slots[p.slot] != p:
				return fmt.Errorf("mem audit: page at slot %d is not at its working-set slot %d", i, p.slot)
			}
		}
	}
	for id := range m.perSPU {
		for _, dirty := range [2]bool{false, true} {
			h := *m.perSPU[id].lru(dirty)
			for i, p := range h {
				switch {
				case int(p.heapIdx) != i:
					return fmt.Errorf("mem audit: spu%d heap slot %d holds a page with heapIdx %d", id, i, p.heapIdx)
				case p.index < 0 || int(p.index) >= len(m.pages) || m.pages[p.index] != p:
					return fmt.Errorf("mem audit: spu%d heap slot %d holds a page not in use", id, i)
				case int(p.SPU) != id:
					return fmt.Errorf("mem audit: spu%d heap holds a page owned by spu%d", id, p.SPU)
				case p.dirty != dirty:
					return fmt.Errorf("mem audit: spu%d heap for dirty=%v holds a page with dirty=%v", id, dirty, p.dirty)
				case p.pinned:
					return fmt.Errorf("mem audit: spu%d heap slot %d holds a pinned page", id, i)
				case p.hkey > p.lastUse():
					return fmt.Errorf("mem audit: spu%d heap slot %d keyed at %v, after its last use %v", id, i, p.hkey, p.lastUse())
				case i > 0 && heapLess(p, h[(i-1)/2]):
					return fmt.Errorf("mem audit: spu%d heap slot %d orders before its parent", id, i)
				}
			}
		}
	}
	counts := make([]spuPages, len(m.perSPU))
	for _, p := range m.pages {
		if int(p.SPU) >= len(counts) {
			return fmt.Errorf("mem audit: page owned by spu%d, beyond the per-SPU index", p.SPU)
		}
		c := &counts[p.SPU]
		c.owned++
		if p.dirty {
			c.dirty++
		}
		if p.pinned {
			c.pinned++
			continue
		}
		if h := *m.perSPU[p.SPU].lru(p.dirty); p.heapIdx < 0 || int(p.heapIdx) >= len(h) || h[p.heapIdx] != p {
			return fmt.Errorf("mem audit: unpinned spu%d page is missing from its reclaim heap", p.SPU)
		}
	}
	for id := range m.perSPU {
		s, c := &m.perSPU[id], &counts[id]
		if s.owned != c.owned {
			return fmt.Errorf("mem audit: spu%d owned counter %d, scan found %d", id, s.owned, c.owned)
		}
		if s.pinned != c.pinned {
			return fmt.Errorf("mem audit: spu%d pinned counter %d, scan found %d", id, s.pinned, c.pinned)
		}
		if s.dirty != c.dirty {
			return fmt.Errorf("mem audit: spu%d dirty counter %d, scan found %d", id, s.dirty, c.dirty)
		}
	}
	return m.auditFast()
}

// auditFast checks frame conservation and charge/ownership agreement
// from the incrementally-maintained per-SPU counters — O(#SPUs),
// no scan, no allocation. Audit cross-checks those structures against a
// full scan, so tests and the final sweep would catch counter drift.
func (m *Manager) auditFast() error {
	if got := len(m.pages) + m.inFlight; got+m.FreePages() != m.total {
		return fmt.Errorf("mem audit: used %d + free %d != total %d", got, m.FreePages(), m.total)
	}
	// In-flight evictions keep their SPU charge until write-back ends,
	// so per-SPU charges may exceed the owned-page count by at most the
	// total in-flight frames.
	var charged float64
	slack := m.inFlight
	for _, s := range m.spus.All() {
		u := s.Used(core.Memory)
		charged += u
		owned := 0
		if i := int(s.ID()); i < len(m.perSPU) {
			owned = m.perSPU[i].owned
		}
		if int(u) < owned {
			return fmt.Errorf("mem audit: SPU %d charged %.0f but owns %d pages", s.ID(), u, owned)
		}
		if int(u) > owned+slack {
			return fmt.Errorf("mem audit: SPU %d charged %.0f, owns %d (+%d in flight)",
				s.ID(), u, owned, slack)
		}
	}
	if int(charged) != len(m.pages)+m.inFlight {
		return fmt.Errorf("mem audit: total charges %.0f != %d frames in use",
			charged, len(m.pages)+m.inFlight)
	}
	return nil
}

// serveWaiters retries queued allocation requests in FIFO order,
// stopping at the first that still cannot be satisfied (to preserve
// ordering within and across SPUs).
func (m *Manager) serveWaiters() {
	if m.serving {
		return
	}
	m.serving = true
	defer func() { m.serving = false }()
	for len(m.waiters) > 0 {
		w := m.waiters[0]
		p := m.Allocate(w.spu, w.kind, w.owner)
		if p == nil {
			// Head-of-line waiter is stuck; try to find any other waiter
			// from a different SPU that can proceed, so one throttled SPU
			// does not block the whole machine.
			served := false
			for i := 1; i < len(m.waiters); i++ {
				if m.waiters[i].spu == w.spu {
					continue
				}
				if p2 := m.Allocate(m.waiters[i].spu, m.waiters[i].kind, m.waiters[i].owner); p2 != nil {
					fn := m.waiters[i].fn
					m.waiters = append(m.waiters[:i], m.waiters[i+1:]...)
					m.Stat.WaitQueueLen.Set(m.eng.Now(), float64(len(m.waiters)))
					fn(p2)
					served = true
					break
				}
			}
			if !served {
				return
			}
			continue
		}
		m.waiters = m.waiters[1:]
		m.Stat.WaitQueueLen.Set(m.eng.Now(), float64(len(m.waiters)))
		w.fn(p)
	}
}
