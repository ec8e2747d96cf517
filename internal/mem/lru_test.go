package mem

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/sim"
)

// scanVictims is the reclaim scan the per-SPU heaps replaced, kept as
// the reference FuzzReclaimVictim compares them with: it walks a page
// list and returns its clean and dirty LRU candidates, merging with the
// best found so far. last gives each page's last use; before orders by
// it, then by allocation.
func scanVictims(l []*Page, last map[*Page]sim.Time, victim, dirtyVictim *Page) (*Page, *Page) {
	before := func(a, b *Page) bool {
		return last[a] < last[b] || (last[a] == last[b] && a.seq < b.seq)
	}
	for _, p := range l {
		if p.pinned || p.evicting {
			continue
		}
		if p.dirty {
			if dirtyVictim == nil || before(p, dirtyVictim) {
				dirtyVictim = p
			}
			continue
		}
		if victim == nil || before(p, victim) {
			victim = p
		}
	}
	return victim, dirtyVictim
}

// scanVictim is what the scan-based reclaim would evict: from the SPU's
// own pages, or from every page in use when all is set. The per-SPU
// lists the scan walked held exactly the in-use pages of each SPU; the
// order of a list never mattered because the order is total.
func scanVictim(m *Manager, last map[*Page]sim.Time, spu int, all bool) *Page {
	var l []*Page
	for _, p := range m.pages {
		if all || int(p.SPU) == spu {
			l = append(l, p)
		}
	}
	victim, dirtyVictim := scanVictims(l, last, nil, nil)
	if victim == nil {
		victim = dirtyVictim
	}
	return victim
}

// checkVictims requires the heap index to pick the scan's victim for
// every SPU and for the machine as a whole, and the deep audit to pass.
func checkVictims(t *testing.T, m *Manager, last map[*Page]sim.Time, step int) {
	t.Helper()
	for spu := range m.perSPU {
		if got, want := lruVictim(m.perSPU[spu:spu+1]), scanVictim(m, last, spu, false); got != want {
			t.Fatalf("step %d: spu%d victim %s, scan picks %s", step, spu, pageName(got), pageName(want))
		}
	}
	if got, want := lruVictim(m.perSPU), scanVictim(m, last, 0, true); got != want {
		t.Fatalf("step %d: global victim %s, scan picks %s", step, pageName(got), pageName(want))
	}
	if err := m.Audit(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
}

func pageName(p *Page) string {
	if p == nil {
		return "none"
	}
	return fmt.Sprintf("page %d of spu%d", p.seq, p.SPU)
}

// setOwner is a process's side of a working set in FuzzReclaimVictim.
// Eviction through the owner unbinds the page from the set; members is
// the shadow the set replaced, the resident list a process kept before,
// with its linear-scan removal.
type setOwner struct {
	set     WorkingSet
	members []*Page
}

func (o *setOwner) PageEvicted(p *Page) {
	if !o.set.Unbind(p) {
		return
	}
	for i, q := range o.members {
		if q == p {
			o.members = append(o.members[:i], o.members[i+1:]...)
			return
		}
	}
}

// checkMembers requires the set to hold exactly the shadow's pages, in
// the shadow's order.
func checkMembers(t *testing.T, o *setOwner, step int) {
	t.Helper()
	var bound []*Page
	for _, p := range o.set.slots {
		if p != nil {
			bound = append(bound, p)
		}
	}
	if o.set.Len() != len(o.members) || !slices.Equal(bound, o.members) {
		t.Fatalf("step %d: set holds %d pages (Len %d), the shadow %d in another order",
			step, len(bound), o.set.Len(), len(o.members))
	}
}

// FuzzReclaimVictim drives random page operations — allocate, request,
// touch (with equal-time ties), retag by a second SPU, dirty/clean,
// pin/unpin, free, evict from one SPU or globally, dirty write-backs
// that succeed, fail and retry, and the working-set operations: request
// a page into a set, stamp a set at the same or a later time, evict a
// bound page through its owner, and detach a set (freeing its pages, as
// exit does, or keeping them in use). After every step the heap index
// must choose the same victim as the reference scan, which reads each
// page's last use from a shadow table that stamps every member page of
// a set explicitly, as a per-page touch loop would. The seed corpus
// runs with the normal tests; `go test -run '^$' -fuzz
// FuzzReclaimVictim ./internal/mem` explores further.
func FuzzReclaimVictim(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 2, 0, 1, 4, 0, 1, 7, 0})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 3, 0, 0, 3, 1, 1, 2, 0, 2, 4, 1, 0, 7, 1, 7, 2, 9, 1})
	f.Add([]byte{
		0, 0, 0, 0, 0, 1, 0, 2, 0, 3, 2, 0, 0, 2, 1, 3, 3, 2, 1, 4, 1, 1, 7, 0,
		8, 0, 8, 1, 6, 2, 5, 0, 1, 7, 4, 1, 3, 3, 0, 9, 0, 7, 2, 8, 2, 9, 3,
	})
	f.Add([]byte{
		10, 0, 10, 0, 10, 1, 11, 0, 10, 0, 2, 1, 11, 2, 12, 0, 10, 3, 4, 2,
		11, 1, 7, 0, 12, 1, 9, 0, 11, 3, 13, 0, 10, 0, 11, 0, 13, 1, 8, 0,
	})
	f.Add([]byte{
		10, 0, 10, 0, 10, 0, 10, 0, 10, 0, 10, 0, 10, 0, 10, 0, 10, 0, 11, 1,
		5, 3, 12, 0, 12, 1, 12, 2, 11, 0, 10, 0, 10, 0, 10, 0, 10, 0, 13, 1,
	})
	// A set page allocated before an unbound page of the same SPU is
	// the older by allocation, the younger once its set is stamped.
	f.Add([]byte{10, 0, 0, 0, 11, 3, 7, 0, 10, 0, 13, 0, 7, 0, 7, 0})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		eng := sim.NewEngine()
		spus := core.NewManager()
		var users []core.SPUID
		for i := 0; i < 3; i++ {
			users = append(users, spus.NewSPU("u", 1, core.ShareIdle).ID())
		}
		m := NewManager(eng, spus, 24, 0)
		m.DivideAmongSPUs()
		var pending []func(bool)
		m.SetPageout(func(_ *Page, done func(bool)) { pending = append(pending, done) })
		var pages []*Page
		last := make(map[*Page]sim.Time)
		keep := func(p *Page) {
			pages = append(pages, p)
			last[p] = eng.Now()
		}
		sets := []*setOwner{{}, {}, {}} // one per user SPU
		arg := func(i int) int {
			if i < len(ops) {
				return int(ops[i])
			}
			return 0
		}
		page := func(i int) *Page {
			if len(pages) == 0 {
				return nil
			}
			return pages[arg(i)%len(pages)]
		}
		owners := []core.SPUID{users[0], users[1], users[2], core.SharedID, core.KernelID}
		for i, step := 0, 0; i < len(ops); i, step = i+2, step+1 {
			a := arg(i + 1)
			switch ops[i] % 14 {
			case 0: // allocate
				if p := m.Allocate(owners[a%len(owners)], Kind(a/len(owners)%3), nil); p != nil {
					keep(p)
				}
			case 1: // request, which may queue and run the pager
				m.Request(users[a%len(users)], Anon, nil, keep)
			case 2: // touch by the owner, at the same or a later time
				if p := page(i + 1); p != nil {
					eng.RunUntil(eng.Now() + sim.Time(a%3)*sim.Microsecond)
					m.Touch(p, p.SPU)
					last[p] = eng.Now()
				}
			case 3: // touch by another user SPU: retags a user page to shared
				// Only its owner touches a bound page.
				if p := page(i + 1); p != nil && p.ws == nil {
					m.Touch(p, users[a%len(users)])
					last[p] = eng.Now()
				}
			case 4:
				if p := page(i + 1); p != nil {
					m.SetDirty(p, !p.dirty)
				}
			case 5:
				if p := page(i + 1); p != nil {
					m.SetPinned(p, !p.pinned)
				}
			case 6: // free; a bound page leaves only by eviction or detach
				if p := page(i + 1); p != nil && p.ws == nil {
					m.Release(p)
				}
			case 7:
				m.evictFromSPU(owners[a%len(owners)])
			case 8:
				m.evictAny()
			case 9: // finish the oldest write-back; odd args fail it
				if len(pending) > 0 {
					done := pending[0]
					pending = pending[1:]
					done(a%2 == 0)
				}
				eng.RunUntil(eng.Now() + sim.Time(a%4)*20*sim.Millisecond)
			case 10: // fault a page into a set, which may queue and run the pager
				o := sets[a%len(sets)]
				m.Request(users[a%len(users)], Anon, o, func(p *Page) {
					keep(p)
					o.set.Bind(p)
					o.members = append(o.members, p)
				})
			case 11: // stamp a set at the same or a later time
				o := sets[a%len(sets)]
				eng.RunUntil(eng.Now() + sim.Time(a/len(sets)%3)*sim.Microsecond)
				m.TouchSet(&o.set)
				for _, p := range o.members {
					last[p] = eng.Now()
				}
			case 12: // evict one bound, unpinned page through its owner
				if o := sets[a%len(sets)]; len(o.members) > 0 {
					if p := o.members[a/len(sets)%len(o.members)]; !p.pinned {
						m.evictVictim(p)
					}
				}
			case 13: // detach a set; odd args free its pages in order, as exit does
				o := sets[a%len(sets)]
				detached := o.set.Detach()
				if !slices.Equal(detached, o.members) {
					t.Fatalf("step %d: Detach returned %d pages, the shadow holds %d in another order",
						step, len(detached), len(o.members))
				}
				o.members = nil
				if a/len(sets)%2 == 1 {
					for _, p := range detached {
						m.Release(p)
					}
				}
			}
			for _, o := range sets {
				checkMembers(t, o, step)
			}
			checkVictims(t, m, last, step)
		}

	})
}

// TestVictimSelectionAllocatesNothing pins the reclaim index's cost
// model: choosing a victim, including re-keying pages touched since
// they were keyed, allocates nothing.
func TestVictimSelectionAllocatesNothing(t *testing.T) {
	eng, _, m, us := rig(2, core.ShareAll, 4096)
	for i := 0; i < 2048; i++ {
		p := m.Allocate(us[i%2].ID(), Anon, nil)
		if i%3 == 0 {
			m.MarkDirty(p)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		eng.RunUntil(eng.Now() + sim.Microsecond)
		v := lruVictim(m.perSPU)
		m.Touch(v, v.SPU) // stale key at the top: the next pick re-keys it
		lruVictim(m.perSPU[us[1].ID() : us[1].ID()+1])
	})
	if allocs != 0 {
		t.Fatalf("victim selection allocates %.1f objects", allocs)
	}
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestAuditDetectsHeapCorruption is the negative control for the
// reclaim-index laws: corrupting one heap slot must fail Audit.
func TestAuditDetectsHeapCorruption(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(h lruHeap)
		want    string
	}{
		{"swapped slots", func(h lruHeap) { h[1], h[2] = h[2], h[1] }, "heapIdx"},
		{"key after last use", func(h lruHeap) { h[3].hkey = h[3].LastUse + 1 }, "after its last use"},
		{"order", func(h lruHeap) { h[0].hkey, h[0].LastUse = 9, 9 }, "before its parent"},
		{"pinned page", func(h lruHeap) { h[2].pinned = true }, "pinned page"},
		{"wrong heap", func(h lruHeap) { h[1].dirty = true }, "dirty="},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, _, m, us := rig(1, core.ShareIdle, 100)
			for i := 0; i < 8; i++ {
				m.Allocate(us[0].ID(), Anon, nil)
				eng.RunUntil(eng.Now() + 1)
			}
			if err := m.Audit(); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(m.perSPU[us[0].ID()].cleanLRU)
			err := m.Audit()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Audit = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}
