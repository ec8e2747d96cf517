package sched

import (
	"strings"
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/sim"
)

// smpLoanRig builds two ShareAll SPUs on two CPUs (cpu0 homed at us[0],
// cpu1 at us[1]) and fills both CPUs with us[1] threads before an us[0]
// thread wakes, so cpu0 runs a foreign thread without a loan flag (legal
// under ShareAll) while its home SPU waits. No tick runs.
func smpLoanRig(t *testing.T) (*sim.Engine, *Scheduler) {
	t.Helper()
	eng, _, s, us := schedRig(2, core.ShareAll, 2)
	if h := s.Homes(); h[0] != us[0].ID() || h[1] != us[1].ID() {
		t.Fatalf("homes %v", h)
	}
	s.Wake(burst(s, us[1].ID(), "b0", sim.Second, nil, eng))
	s.Wake(burst(s, us[1].ID(), "b1", sim.Second, nil, eng))
	s.Wake(burst(s, us[0].ID(), "a0", sim.Second, nil, eng))
	return eng, s
}

// A rebalance that leaves every home unchanged can still turn a
// ShareAll CPU's foreign occupant into a loan (the cpu-off heal of
// `pisosim -workload mem -scheme SMP` under a fault plan). The home
// thread's earlier ShareAll wait is not a missed revocation: the
// revocation bound starts when the loan is flagged.
func TestLoanFlaggedByRebalanceStartsRevocationClock(t *testing.T) {
	eng, s := smpLoanRig(t)
	eng.RunUntil(25 * sim.Millisecond) // a0 has waited 2.5 ticks, inside b0's slice
	if err := s.AuditInvariants(); err != nil {
		t.Fatalf("before rebalance: %v", err)
	}
	s.AssignHomes()
	if !s.cpus[0].loan {
		t.Fatal("rebalance did not flag cpu0's foreign occupant as a loan")
	}
	if err := s.AuditInvariants(); err != nil {
		t.Fatalf("loan flagged at the rebalance failed the revocation bound at once: %v", err)
	}
}

// Negative control: once the loan is flagged, the home thread waiting
// more than two ticks with no revocation still fails the audit, and a
// later rebalance does not restart the loan's clock.
func TestLoanNotRevokedWithinTwoTicksFailsAudit(t *testing.T) {
	eng, s := smpLoanRig(t)
	eng.RunUntil(sim.Millisecond)
	s.AssignHomes()
	eng.RunUntil(12 * sim.Millisecond)
	s.AssignHomes()
	eng.RunUntil(sim.Millisecond + 2*TickPeriod + sim.Millisecond) // still inside b0's slice, no tick
	err := s.AuditInvariants()
	if err == nil || !strings.Contains(err.Error(), "cpu0 still loaned") {
		t.Fatalf("audit = %v, want cpu0's unrevoked loan", err)
	}
}
