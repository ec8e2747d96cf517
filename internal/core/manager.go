package core

import "fmt"

// Manager is the SPU table for one machine: the kernel and shared SPUs
// plus any user SPUs, with helpers for dividing resources according to
// the sharing contract.
type Manager struct {
	spus []*SPU

	// activeUsers caches the ActiveUsers result; the policy ticks ask for
	// it every period, and rebuilding the slice each time put a steady
	// allocation on the kernel's periodic path. SPU creation and
	// suspend/wake invalidate it.
	activeUsers []*SPU
	activeDirty bool

	// DivideIntegral scratch, reused across policy ticks.
	sharesBuf []int
	fracsBuf  []frac
}

type frac struct {
	idx int
	f   float64
}

// NewManager creates a manager pre-populated with the kernel and shared
// SPUs.
func NewManager() *Manager {
	m := &Manager{activeDirty: true}
	m.spus = append(m.spus,
		&SPU{id: KernelID, name: "kernel", policy: ShareAll, active: true, mgr: m},
		&SPU{id: SharedID, name: "shared", policy: ShareNone, active: true, mgr: m},
	)
	return m
}

// NewSPU creates a user SPU with the given relative weight (1.0 is one
// equal share; §2.1's "project A owns a third" is weight 1 vs weight 2)
// and sharing policy. SPUs can be created dynamically at any time.
func (m *Manager) NewSPU(name string, weight float64, policy Policy) *SPU {
	if weight <= 0 {
		panic(fmt.Sprintf("core: SPU %q with non-positive weight %g", name, weight))
	}
	s := &SPU{
		id:     SPUID(len(m.spus)),
		name:   name,
		policy: policy,
		weight: weight,
		active: true,
		mgr:    m,
	}
	m.spus = append(m.spus, s)
	m.activeDirty = true
	return s
}

// Get returns the SPU with the given ID, or panics if it does not exist —
// a dangling SPUID is a kernel-model bug, not a runtime condition.
func (m *Manager) Get(id SPUID) *SPU {
	if int(id) < 0 || int(id) >= len(m.spus) {
		panic(fmt.Sprintf("core: no SPU with id %d", id))
	}
	return m.spus[id]
}

// Kernel returns the kernel SPU.
func (m *Manager) Kernel() *SPU { return m.spus[KernelID] }

// Shared returns the shared SPU.
func (m *Manager) Shared() *SPU { return m.spus[SharedID] }

// All returns every SPU including kernel and shared.
func (m *Manager) All() []*SPU { return m.spus }

// Users returns the user SPUs in creation order.
func (m *Manager) Users() []*SPU {
	if len(m.spus) <= int(FirstUserID) {
		return nil
	}
	return m.spus[FirstUserID:]
}

// ActiveUsers returns the user SPUs that are currently active. The
// returned slice is a cache owned by the manager, valid until the next
// SPU creation or suspend/wake — callers iterate it, they must not
// mutate or retain it across those events.
func (m *Manager) ActiveUsers() []*SPU {
	if m.activeDirty {
		m.activeUsers = m.activeUsers[:0]
		for _, s := range m.Users() {
			if s.active {
				m.activeUsers = append(m.activeUsers, s)
			}
		}
		m.activeDirty = false
	}
	return m.activeUsers
}

// TotalWeight returns the sum of active user SPU weights.
func (m *Manager) TotalWeight() float64 {
	var w float64
	for _, s := range m.ActiveUsers() {
		w += s.weight
	}
	return w
}

// TotalShare returns the sum of active user SPU effective shares.
// With no controller retunes in effect this equals TotalWeight, and
// the division helpers below produce bit-identical results to the
// static weight-driven math.
func (m *Manager) TotalShare() float64 {
	var w float64
	for _, s := range m.ActiveUsers() {
		w += s.Share()
	}
	return w
}

// DivideIntegral splits an integral resource (such as whole pages or
// whole CPUs) among the active user SPUs in proportion to their
// effective shares (static weights unless a controller retuned them),
// setting each SPU's entitled and allowed levels: the machine's sharing
// contract (§2.1). Remainder units go one each to the SPUs with the
// largest fractional parts (largest remainder method), earlier-created
// SPUs first on ties, so the shares sum exactly to total. The caller
// subtracts what the kernel and shared SPUs already consume before
// dividing, so that their cost is borne by everyone (§2.2). The returned
// slice is manager-owned scratch, valid until the next DivideIntegral
// call.
func (m *Manager) DivideIntegral(r Resource, total int) []int {
	users := m.ActiveUsers()
	tw := m.TotalShare()
	if cap(m.sharesBuf) < len(users) {
		m.sharesBuf = make([]int, len(users))
		m.fracsBuf = make([]frac, len(users))
	}
	shares := m.sharesBuf[:len(users)]
	if tw == 0 || total <= 0 {
		for i, s := range users {
			shares[i] = 0
			s.levels[r].Entitled = 0
			if s.levels[r].Allowed < 0 {
				s.levels[r].Allowed = 0
			}
		}
		return shares
	}
	fracs := m.fracsBuf[:len(users)]
	assigned := 0
	for i, s := range users {
		exact := float64(total) * s.Share() / tw
		shares[i] = int(exact)
		fracs[i] = frac{i, exact - float64(shares[i])}
		assigned += shares[i]
	}
	// Hand out the remainder by largest fractional part, stable on ties.
	for assigned < total {
		best := -1
		for i := range fracs {
			if best == -1 || fracs[i].f > fracs[best].f+1e-12 {
				best = i
			}
		}
		shares[fracs[best].idx]++
		fracs[best].f = -1
		assigned++
	}
	for i, s := range users {
		s.levels[r].Entitled = float64(shares[i])
		s.levels[r].Allowed = float64(shares[i])
	}
	return shares
}

// TotalUsed sums the used level of a resource across all SPUs.
func (m *Manager) TotalUsed(r Resource) float64 {
	var u float64
	for _, s := range m.spus {
		u += s.levels[r].Used
	}
	return u
}
