package mem

import (
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/sim"
)

func TestRemoveFramesEvictsToRebalance(t *testing.T) {
	_, _, m, us := rig(1, core.ShareIdle, 100)
	o := &testOwner{}
	var pages []*Page
	for i := 0; i < 90; i++ {
		p := m.Allocate(us[0].ID(), Anon, o)
		if p == nil {
			t.Fatalf("allocation %d failed", i)
		}
		pages = append(pages, p)
	}
	if m.FreePages() != 10 {
		t.Fatalf("free = %d", m.FreePages())
	}

	// Lose 30 frames: 10 free ones vanish, and reclaim must evict 20
	// clean pages to balance the books.
	m.RemoveFrames(30)
	if m.TotalPages() != 70 {
		t.Fatalf("total = %d, want 70", m.TotalPages())
	}
	if m.FreePages() < 0 {
		t.Fatalf("free still negative (%d) after reclaim", m.FreePages())
	}
	if len(o.evicted) != 20 {
		t.Fatalf("evicted %d pages, want 20", len(o.evicted))
	}
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}

	// Frames return: 70 pages survive, so 30 are free again.
	m.AddFrames(30)
	if m.TotalPages() != 100 || m.FreePages() != 30 {
		t.Fatalf("after restore: total %d free %d", m.TotalPages(), m.FreePages())
	}
}

func TestRemoveFramesDeniesUntilReclaimed(t *testing.T) {
	eng, _, m, us := rig(1, core.ShareIdle, 50)
	o := &testOwner{}
	for i := 0; i < 40; i++ {
		p := m.Allocate(us[0].ID(), Anon, o)
		m.MarkDirty(p) // dirty: eviction needs write-back
	}
	var writebacks []func(bool)
	m.SetPageout(func(p *Page, done func(ok bool)) {
		writebacks = append(writebacks, done)
	})
	m.RemoveFrames(20)
	// Free count is negative; every allocation must be denied.
	if p := m.Allocate(us[0].ID(), Anon, o); p != nil {
		t.Fatal("allocation satisfied while frames are owed")
	}
	if len(writebacks) == 0 {
		t.Fatal("no write-backs issued for the deficit")
	}
	for _, done := range writebacks {
		done(true)
	}
	eng.Run()
	if m.FreePages() < 0 {
		t.Fatalf("free = %d after write-backs landed", m.FreePages())
	}
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestPageoutRetriesFailedWriteback(t *testing.T) {
	eng, _, m, us := rig(1, core.ShareNone, 100)
	us[0].SetEntitled(core.Memory, 1)
	us[0].SetAllowed(core.Memory, 1)
	o := &testOwner{}
	p := m.Allocate(us[0].ID(), Anon, o)
	m.MarkDirty(p)

	attempts := 0
	m.SetPageout(func(pg *Page, done func(ok bool)) {
		attempts++
		ok := attempts > 2 // fail twice, then succeed
		eng.After(sim.Millisecond, "writeback", func() { done(ok) })
	})
	var got *Page
	m.Request(us[0].ID(), Anon, o, func(np *Page) { got = np })
	eng.Run()
	if got == nil {
		t.Fatal("request never satisfied: pageout retry gave up")
	}
	if attempts != 3 {
		t.Fatalf("pageout attempts = %d, want 3", attempts)
	}
	if m.Stat.PageoutRetries != 2 {
		t.Fatalf("PageoutRetries = %d, want 2", m.Stat.PageoutRetries)
	}
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}
}
