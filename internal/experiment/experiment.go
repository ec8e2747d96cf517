// Package experiment regenerates every table and figure of the paper's
// evaluation (§4) on the simulated machine, plus the ablations DESIGN.md
// calls out. Each runner returns typed rows (so tests can assert the
// paper's shapes) and can render a paper-style text table.
//
// Absolute times differ from the paper's SimOS runs — the substrate is a
// model, not the authors' testbed — but the shapes are preserved and
// recorded in EXPERIMENTS.md.
package experiment

import (
	"strings"

	"perfiso/internal/core"
	"perfiso/internal/scenario"
	"perfiso/internal/sim"
)

// Schemes is the fixed comparison order used in the paper's figures.
var Schemes = []core.Scheme{core.SMP, core.Quo, core.PIso}

// Norm expresses v as a percentage of base, the form the paper's
// figures use (SMP balanced = 100).
func Norm(v, base sim.Time) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(v) / float64(base)
}

// named selects the jobs whose names start with prefix, for Run.Mean.
func named(prefix string) func(scenario.Job) bool {
	return func(j scenario.Job) bool { return strings.HasPrefix(j.Name, prefix) }
}

// onSPU selects the jobs of the plan's SPU i, for Run.Mean.
func onSPU(i int) func(scenario.Job) bool {
	return func(j scenario.Job) bool { return j.SPU == i }
}
