// Package core implements the paper's central contribution: the Software
// Performance Unit (SPU) kernel abstraction (§2).
//
// An SPU associates a group of processes with a share of the machine's
// resources. For each resource an SPU carries three levels (§2.3):
//
//   - entitled: the share the SPU is guaranteed by the machine contract;
//   - allowed:  how much it may use right now (raised when idle resources
//     are lent to it, lowered when loans are revoked);
//   - used:     how much it is actually using.
//
// Two default SPUs exist in every system (§2.2): the kernel SPU, whose
// processes and pages have unrestricted access, and the shared SPU, which
// accounts for resources referenced by multiple SPUs (shared pages,
// delayed disk writes). Their cost is effectively borne by all user SPUs,
// because only the remainder is divided among user SPUs.
//
// The enforcement mechanisms live in the substrate packages (sched, mem,
// disk); this package owns identity, accounting, and the sharing-policy
// vocabulary.
package core

import "fmt"

// SPUID identifies an SPU. The kernel and shared SPUs have fixed IDs.
type SPUID int

const (
	// KernelID is the SPU for kernel processes and kernel memory. It has
	// unrestricted access to all resources (§2.2).
	KernelID SPUID = 0
	// SharedID is the SPU that accounts for resources used by multiple
	// SPUs: shared pages and delayed disk writes (§2.2).
	SharedID SPUID = 1
	// FirstUserID is the ID of the first user-created SPU.
	FirstUserID SPUID = 2
)

// IsUser reports whether the ID denotes a user SPU (not kernel/shared).
func (id SPUID) IsUser() bool { return id >= FirstUserID }

// Resource enumerates the resources under performance-isolation control.
type Resource int

const (
	CPU    Resource = iota // CPU time, in units of CPUs
	Memory                 // physical memory, in pages
	DiskBW                 // disk bandwidth, in share weight (per disk)
	NetBW                  // network bandwidth, in share weight (per link)
	NumResources
)

// String returns the resource's name.
func (r Resource) String() string {
	switch r {
	case CPU:
		return "cpu"
	case Memory:
		return "memory"
	case DiskBW:
		return "diskbw"
	case NetBW:
		return "netbw"
	default:
		return fmt.Sprintf("resource(%d)", int(r))
	}
}

// Policy is an SPU's sharing policy (§2.1): what happens to its resources
// when they are idle.
type Policy int

const (
	// ShareNone never lends resources: each SPU behaves like a separate
	// fixed-quota machine. This is the paper's Quo configuration.
	ShareNone Policy = iota
	// ShareIdle lends only idle resources, revoking them when the owner
	// needs them back. This is performance isolation (PIso).
	ShareIdle
	// ShareAll ignores ownership entirely; resources go to whoever asks.
	// This approximates an unmodified SMP kernel.
	ShareAll
)

// String returns the policy's name.
func (p Policy) String() string {
	switch p {
	case ShareNone:
		return "share-none"
	case ShareIdle:
		return "share-idle"
	case ShareAll:
		return "share-all"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Scheme is a whole-machine resource allocation scheme (Table 2). It is a
// convenience that selects the per-SPU policy and the disk scheduling
// algorithm together.
type Scheme int

const (
	// SMP is unconstrained sharing with no isolation: unmodified IRIX 5.3.
	SMP Scheme = iota
	// Quo is a fixed quota for each SPU with no sharing.
	Quo
	// PIso is performance isolation: policies for isolation and sharing.
	PIso
)

// Policy returns the per-SPU sharing policy the scheme implies.
func (s Scheme) Policy() Policy {
	switch s {
	case SMP:
		return ShareAll
	case Quo:
		return ShareNone
	default:
		return ShareIdle
	}
}

// String returns the scheme's name as used in the paper's tables.
func (s Scheme) String() string {
	switch s {
	case SMP:
		return "SMP"
	case Quo:
		return "Quo"
	case PIso:
		return "PIso"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// Levels holds the three per-resource amounts of §2.3.
type Levels struct {
	Entitled float64
	Allowed  float64
	Used     float64
}

// Idle returns how much of the entitlement is currently unused (never
// negative).
func (l Levels) Idle() float64 {
	idle := l.Entitled - l.Used
	if idle < 0 {
		return 0
	}
	return idle
}

// Pressure returns how far usage is being held below demand by the
// allowed level; a positive value means the SPU is at its limit.
func (l Levels) Pressure() float64 {
	p := l.Used - l.Entitled
	if p < 0 {
		return 0
	}
	return p
}

// SPU is one software performance unit.
type SPU struct {
	id     SPUID
	name   string
	policy Policy
	weight float64 // relative share of the machine (1.0 = one equal share)
	share  float64 // dynamic share; 0 means "use weight" (static contract)
	levels [NumResources]Levels
	active bool
	mgr    *Manager // owning manager; invalidates its active-user cache
}

// ID returns the SPU's identifier.
func (s *SPU) ID() SPUID { return s.id }

// Name returns the SPU's human-readable name.
func (s *SPU) Name() string { return s.name }

// Policy returns the SPU's sharing policy.
func (s *SPU) Policy() Policy { return s.policy }

// SetPolicy changes the SPU's sharing policy. The paper allows this to be
// set per SPU to customize behaviour (§2.1).
func (s *SPU) SetPolicy(p Policy) { s.policy = p }

// Weight returns the SPU's relative share weight.
func (s *SPU) Weight() float64 { return s.weight }

// Share returns the SPU's effective division share: the dynamic share
// set by an entitlement controller, or the static weight when no
// controller has retuned this SPU. Every entitlement division (CPU
// homes, memory frames, disk bandwidth) goes through Share, so a
// controller retune moves all three resources coherently while
// weight remains the immutable contract the conservation law is
// stated against.
func (s *SPU) Share() float64 {
	if s.share > 0 {
		return s.share
	}
	return s.weight
}

// SetShare sets the dynamic share. Non-positive values panic: a
// controller must keep every SPU above its floor.
func (s *SPU) SetShare(v float64) {
	if v <= 0 {
		panic(fmt.Sprintf("core: SPU %q share set to non-positive %g", s.name, v))
	}
	s.share = v
}

// Suspend marks the SPU inactive (§2.1: SPUs "could be suspended when
// they have no active processes and awakened at a later time").
func (s *SPU) Suspend() {
	s.active = false
	if s.mgr != nil {
		s.mgr.activeDirty = true
	}
}

// Wake marks the SPU active again.
func (s *SPU) Wake() {
	s.active = true
	if s.mgr != nil {
		s.mgr.activeDirty = true
	}
}

// Levels returns the current levels for a resource.
func (s *SPU) Levels(r Resource) Levels { return s.levels[r] }

// Entitled returns the entitled level for a resource.
func (s *SPU) Entitled(r Resource) float64 { return s.levels[r].Entitled }

// Allowed returns the allowed level for a resource.
func (s *SPU) Allowed(r Resource) float64 { return s.levels[r].Allowed }

// Used returns the used level for a resource.
func (s *SPU) Used(r Resource) float64 { return s.levels[r].Used }

// SetEntitled sets the entitled level and clamps allowed to at least the
// new entitlement (an SPU may always use what it is entitled to).
func (s *SPU) SetEntitled(r Resource, v float64) {
	s.levels[r].Entitled = v
	if s.levels[r].Allowed < v {
		s.levels[r].Allowed = v
	}
}

// SetAllowed sets the allowed level. Lowering it below the entitled level
// is a contract violation and panics; the sharing policy may only lend
// resources above the entitlement.
func (s *SPU) SetAllowed(r Resource, v float64) {
	if v < s.levels[r].Entitled {
		panic(fmt.Sprintf("core: SPU %q allowed %s set to %g, below entitled %g",
			s.name, r, v, s.levels[r].Entitled))
	}
	s.levels[r].Allowed = v
}

// Charge adds delta (which may be negative) to the used level. Usage can
// never go negative; that would indicate double-free accounting.
func (s *SPU) Charge(r Resource, delta float64) {
	u := s.levels[r].Used + delta
	if u < -1e-9 {
		panic(fmt.Sprintf("core: SPU %q %s usage went negative (%g)", s.name, r, u))
	}
	if u < 0 {
		u = 0
	}
	s.levels[r].Used = u
}

// CanUse reports whether the SPU may acquire amount more of the resource
// under its allowed level. The kernel SPU is never limited (§2.2), and a
// ShareAll SPU ignores limits by definition.
func (s *SPU) CanUse(r Resource, amount float64) bool {
	if s.id == KernelID || s.policy == ShareAll {
		return true
	}
	return s.levels[r].Used+amount <= s.levels[r].Allowed+1e-9
}
