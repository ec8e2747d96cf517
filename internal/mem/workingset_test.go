package mem

import (
	"slices"
	"strings"
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/sim"
)

// boundRig allocates n anonymous pages for one user SPU, one simulated
// microsecond apart, and binds them all to a set owned by o.
func boundRig(t *testing.T, n int) (*sim.Engine, *Manager, []*core.SPU, *setOwner) {
	t.Helper()
	eng, _, m, us := rig(2, core.ShareIdle, 100)
	o := &setOwner{}
	for i := 0; i < n; i++ {
		p := m.Allocate(us[0].ID(), Anon, o)
		o.set.Bind(p)
		o.members = append(o.members, p)
		eng.RunUntil(eng.Now() + sim.Microsecond)
	}
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}
	return eng, m, us, o
}

// TestWorkingSetKeepsArrivalOrder unbinds pages out of order, then binds
// until the slots are full, so a bind compacts them: the set must keep
// the survivors in arrival order, each at its own slot, and Detach must
// return them in that order.
func TestWorkingSetKeepsArrivalOrder(t *testing.T) {
	_, m, us, o := boundRig(t, 8)
	for _, i := range []int{5, 0, 3} {
		m.evictVictim(o.members[i])
	}
	want := slices.Clone(o.members)
	for len(o.set.slots) < cap(o.set.slots) {
		p := m.Allocate(us[0].ID(), Anon, o)
		o.set.Bind(p)
		want = append(want, p)
	}
	p := m.Allocate(us[0].ID(), Anon, o)
	o.set.Bind(p) // full with tombstones: compacts, then appends
	want = append(want, p)
	if len(o.set.slots) != o.set.Len() {
		t.Fatalf("bind into full slots left %d tombstones", len(o.set.slots)-o.set.Len())
	}
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}
	if got := o.set.Detach(); !slices.Equal(got, want) {
		t.Fatal("Detach did not return the bound pages in arrival order")
	}
	if o.set.Len() != 0 {
		t.Fatalf("Len = %d after Detach", o.set.Len())
	}
}

// TestTouchSetMovesEveryPage pins the stamp's meaning: after TouchSet,
// every bound page is as recently used as an explicit Touch would have
// made it, and a detached page keeps that last use.
func TestTouchSetMovesEveryPage(t *testing.T) {
	eng, m, us, o := boundRig(t, 4)
	loose := m.Allocate(us[0].ID(), Anon, nil) // younger than every bound page
	eng.RunUntil(eng.Now() + sim.Microsecond)
	m.TouchSet(&o.set)
	if v := lruVictim(m.perSPU); v != loose {
		t.Fatalf("victim %s, want the unbound page", pageName(v))
	}
	m.Free(loose)
	stamp := eng.Now()
	eng.RunUntil(eng.Now() + sim.Microsecond)
	for _, p := range o.set.Detach() {
		if p.LastUse != stamp {
			t.Fatalf("detached %s: LastUse %v, want the stamp %v", pageName(p), p.LastUse, stamp)
		}
	}
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestAuditDetectsWorkingSetCorruption is the negative control for the
// working-set laws: a bound page is anonymous, never re-tagged, and at
// its own slot, and a set's stamp never moves back past a heap key.
func TestAuditDetectsWorkingSetCorruption(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(m *Manager, us []*core.SPU, o *setOwner)
		want    string
	}{
		{"re-tagged", func(m *Manager, us []*core.SPU, o *setOwner) { m.Touch(o.members[2], us[1].ID()) }, "re-tagged"},
		{"not anonymous", func(_ *Manager, _ []*core.SPU, o *setOwner) { o.members[1].Kind = Cache }, "cache page"},
		{"swapped slots", func(_ *Manager, _ []*core.SPU, o *setOwner) {
			o.set.slots[1], o.set.slots[4] = o.set.slots[4], o.set.slots[1]
		}, "working-set slot"},
		{"tombstoned slot", func(_ *Manager, _ []*core.SPU, o *setOwner) { o.set.slots[3] = nil }, "working-set slot"},
		{"stamp moved back", func(m *Manager, _ []*core.SPU, o *setOwner) {
			m.TouchSet(&o.set)
			lruVictim(m.perSPU) // re-keys every page at the stamp
			o.set.stamp = 0
		}, "after its last use"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, m, us, o := boundRig(t, 6)
			tc.corrupt(m, us, o)
			err := m.Audit()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Audit = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}
