package mem

import "perfiso/internal/sim"

// WorkingSet is one owner's resident anonymous pages, in the order they
// were bound, and one touch stamp for all of them. Touching the whole
// set is a single store (Manager.TouchSet): a bound page's effective
// last use is the later of its own LastUse and its set's stamp, and the
// reclaim heaps key pages by that effective value. This is exact
// because only the owner touches its anonymous pages, so a bound page is
// never re-tagged, and nothing outside this package reads LastUse.
//
// Each page keeps its slot, so unbinding one is O(1): its slot becomes a
// tombstone. A bind that finds the slots full compacts them first,
// keeping arrival order. The zero value is an empty set.
type WorkingSet struct {
	slots []*Page // bound pages in arrival order; nil marks an unbound slot
	live  int     // bound pages: len(slots) less the tombstones
	stamp sim.Time
}

// lastUse is the page's effective last use: its own LastUse, or its
// working set's stamp when that is later. Both only rise, so a heap key
// taken from it never exceeds it later.
func (p *Page) lastUse() sim.Time {
	if p.ws != nil && p.ws.stamp > p.LastUse {
		return p.ws.stamp
	}
	return p.LastUse
}

// Len returns the number of bound pages.
func (w *WorkingSet) Len() int { return w.live }

// Bind adds a freshly allocated anonymous page to the set.
func (w *WorkingSet) Bind(p *Page) {
	if p.ws != nil || p.Kind != Anon {
		panic("mem: Bind of a bound or non-anonymous page")
	}
	if len(w.slots) == cap(w.slots) && w.live < len(w.slots) {
		w.compact()
	}
	p.ws, p.slot = w, int32(len(w.slots))
	w.slots = append(w.slots, p)
	w.live++
}

// Unbind removes the page from the set if it is bound there and
// reports whether it was. The set's stamp folds into the page's
// LastUse, so its effective last use — and its place in the reclaim
// heaps — does not change.
func (w *WorkingSet) Unbind(p *Page) bool {
	if p.ws != w {
		return false
	}
	p.LastUse = p.lastUse()
	w.slots[p.slot] = nil
	p.ws = nil
	w.live--
	return true
}

// Detach unbinds every page, folding the stamp into each one's LastUse,
// and returns them in arrival order; the set is left empty. Process
// exit frees the pages in that order after detaching them all, since
// each free may wake a waiter whose reclaim takes other pages of the
// set, and the pages stay in the reclaim heaps until freed.
func (w *WorkingSet) Detach() []*Page {
	pages := w.slots[:0]
	for _, p := range w.slots {
		if p != nil {
			p.LastUse = p.lastUse()
			p.ws = nil
			pages = append(pages, p)
		}
	}
	w.slots, w.live = nil, 0
	return pages
}

// compact drops the tombstones, keeping the bound pages in order.
func (w *WorkingSet) compact() {
	n := 0
	for _, p := range w.slots {
		if p != nil {
			p.slot = int32(n)
			w.slots[n] = p
			n++
		}
	}
	clear(w.slots[n:])
	w.slots = w.slots[:n]
}

// TouchSet records a use of every page bound to the set at the current
// time.
func (m *Manager) TouchSet(w *WorkingSet) { w.stamp = m.eng.Now() }
