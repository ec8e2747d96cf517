package disk

import (
	"perfiso/internal/bwmeter"
	"perfiso/internal/core"
	"perfiso/internal/sim"
)

// usageTable aliases the shared decayed bandwidth accounting (§3.3) in
// the units this package cares about: sectors transferred.
type usageTable struct {
	*bwmeter.Table
}

func newUsageTable(halfLife sim.Time) *usageTable {
	return &usageTable{Table: bwmeter.NewTable(halfLife)}
}

func (t *usageTable) setShare(id core.SPUID, w float64) { t.SetShare(id, w) }

func (t *usageTable) charge(now sim.Time, id core.SPUID, sectors int) {
	t.Charge(now, id, sectors)
}

func (t *usageTable) relative(now sim.Time, id core.SPUID) float64 {
	return t.Relative(now, id)
}
