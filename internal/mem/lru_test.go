package mem

import (
	"fmt"
	"strings"
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/sim"
)

// scanVictims is the reclaim scan the per-SPU heaps replaced, kept as
// the reference FuzzReclaimVictim compares them with: it walks a page
// list and returns its clean and dirty LRU candidates, merging with the
// best found so far.
func scanVictims(l []*Page, victim, dirtyVictim *Page) (*Page, *Page) {
	for _, p := range l {
		if p.pinned || p.evicting {
			continue
		}
		if p.dirty {
			if dirtyVictim == nil || lruBefore(p, dirtyVictim) {
				dirtyVictim = p
			}
			continue
		}
		if victim == nil || lruBefore(p, victim) {
			victim = p
		}
	}
	return victim, dirtyVictim
}

// scanVictim is what the scan-based reclaim would evict: from the SPU's
// own pages, or from every page in use when all is set. The per-SPU
// lists the scan walked held exactly the in-use pages of each SPU; the
// order of a list never mattered because lruBefore is a total order.
func scanVictim(m *Manager, spu int, all bool) *Page {
	var l []*Page
	for _, p := range m.pages {
		if all || int(p.SPU) == spu {
			l = append(l, p)
		}
	}
	victim, dirtyVictim := scanVictims(l, nil, nil)
	if victim == nil {
		victim = dirtyVictim
	}
	return victim
}

// checkVictims requires the heap index to pick the scan's victim for
// every SPU and for the machine as a whole, and the deep audit to pass.
func checkVictims(t *testing.T, m *Manager, step int) {
	t.Helper()
	for spu := range m.perSPU {
		if got, want := lruVictim(m.perSPU[spu:spu+1]), scanVictim(m, spu, false); got != want {
			t.Fatalf("step %d: spu%d victim %s, scan picks %s", step, spu, pageName(got), pageName(want))
		}
	}
	if got, want := lruVictim(m.perSPU), scanVictim(m, 0, true); got != want {
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

// FuzzReclaimVictim drives random page operations — allocate, request,
// touch (with equal-time ties), retag by a second SPU, dirty/clean,
// pin/unpin, free, evict from one SPU or globally, and dirty write-backs
// that succeed, fail and retry — and requires the heap index to choose
// the same victim as the reference scan after every step. The seed
// corpus runs with the normal tests; `go test -run '^$' -fuzz
// FuzzReclaimVictim ./internal/mem` explores further.
func FuzzReclaimVictim(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 2, 0, 1, 4, 0, 1, 7, 0})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 3, 0, 0, 3, 1, 1, 2, 0, 2, 4, 1, 0, 7, 1, 7, 2, 9, 1})
	f.Add([]byte{
		0, 0, 0, 0, 0, 1, 0, 2, 0, 3, 2, 0, 0, 2, 1, 3, 3, 2, 1, 4, 1, 1, 7, 0,
		8, 0, 8, 1, 6, 2, 5, 0, 1, 7, 4, 1, 3, 3, 0, 9, 0, 7, 2, 8, 2, 9, 3,
	})
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
		keep := func(p *Page) { pages = append(pages, p) }
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
			switch ops[i] % 10 {
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
				}
			case 3: // touch by another user SPU: retags a user page to shared
				if p := page(i + 1); p != nil {
					m.Touch(p, users[a%len(users)])
				}
			case 4:
				if p := page(i + 1); p != nil {
					m.SetDirty(p, !p.dirty)
				}
			case 5:
				if p := page(i + 1); p != nil {
					m.SetPinned(p, !p.pinned)
				}
			case 6:
				if p := page(i + 1); p != nil {
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
			}
			checkVictims(t, m, step)
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
