package mem

// spuPages is one SPU's share of the linked (in-use, not mid-eviction)
// frames: how many it owns, how many of those are pinned or dirty, and
// its reclaim candidates — the unpinned ones — split into a clean and a
// dirty LRU heap, so a victim is a heap top.
type spuPages struct {
	owned, pinned, dirty int
	cleanLRU, dirtyLRU   lruHeap
}

// lru returns the heap an unpinned page with the given dirty flag
// belongs in.
func (s *spuPages) lru(dirty bool) *lruHeap {
	if dirty {
		return &s.dirtyLRU
	}
	return &s.cleanLRU
}

// lruBefore orders eviction candidates: least-recently-used first (by
// effective last use), ties broken by allocation order, so the victim is
// the minimum of a total order and does not depend on how candidates are
// stored.
func lruBefore(a, b *Page) bool {
	al, bl := a.lastUse(), b.lastUse()
	return al < bl || (al == bl && a.seq < b.seq)
}

// lruHeap is a binary min-heap of pages ordered by (hkey, seq). A page's
// hkey is its effective last use when it was last keyed. Touch and
// TouchSet raise that value with a single store and leave the heap
// alone, so hkey may lag it but never exceeds it; min re-keys stale tops
// lazily.
type lruHeap []*Page

func heapLess(a, b *Page) bool {
	return a.hkey < b.hkey || (a.hkey == b.hkey && a.seq < b.seq)
}

// min returns the least-recently-used page by (effective last use,
// seq), or nil when the heap is empty. A top whose key is stale gets its
// current effective last use and sinks; once the top's key is current
// it is the exact minimum, because every other page's true key is at
// least its heap key, which is at least the top's.
func (h lruHeap) min() *Page {
	for len(h) > 0 {
		p := h[0]
		last := p.lastUse()
		if p.hkey == last {
			return p
		}
		p.hkey = last
		h.down(0)
	}
	return nil
}

func (h *lruHeap) push(p *Page) {
	p.hkey = p.lastUse()
	p.heapIdx = int32(len(*h))
	*h = append(*h, p)
	h.up(len(*h) - 1)
}

func (h *lruHeap) remove(p *Page) {
	s := *h
	i, last := int(p.heapIdx), len(s)-1
	if i != last {
		s.swap(i, last)
	}
	s[last] = nil
	*h = s[:last]
	p.heapIdx = -1
	if i != last && !h.down(i) {
		h.up(i)
	}
}

func (h lruHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = int32(i)
	h[j].heapIdx = int32(j)
}

func (h lruHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !heapLess(h[i], h[parent]) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

// down sinks the page at i and reports whether it moved.
func (h lruHeap) down(i int) bool {
	start := i
	for {
		least, l := i, 2*i+1
		if l < len(h) && heapLess(h[l], h[least]) {
			least = l
		}
		if r := l + 1; r < len(h) && heapLess(h[r], h[least]) {
			least = r
		}
		if least == i {
			return i != start
		}
		h.swap(i, least)
		i = least
	}
}

// lruVictim returns the least-recently-used reclaim candidate across the
// given SPUs, preferring clean pages (which free instantly) over dirty
// ones (which must be written back first) — the standard pageout-daemon
// optimization; without it every fault under memory pressure pays a full
// write-back plus a swap-in and the machine collapses rather than
// degrades. It returns nil when no page qualifies.
func lruVictim(spus []spuPages) *Page {
	for _, dirty := range [2]bool{false, true} {
		var best *Page
		for i := range spus {
			if p := spus[i].lru(dirty).min(); p != nil && (best == nil || lruBefore(p, best)) {
				best = p
			}
		}
		if best != nil {
			return best
		}
	}
	return nil
}
