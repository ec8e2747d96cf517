package experiment

import (
	"strings"
	"testing"

	"perfiso/internal/core"
)

// The whole stack is deterministic: the same experiment run twice
// produces bit-identical results. This is what makes every shape
// assertion in this package meaningful rather than flaky.
func TestEndToEndDeterminism(t *testing.T) {
	var m Meter
	a := runPmake8Config(core.PIso, true, &m)
	b := runPmake8Config(core.PIso, true, &m)
	if a.Light != b.Light || a.Heavy != b.Heavy {
		t.Fatalf("identical runs diverged: %+v vs %+v", a, b)
	}
}

// A faulted run draws from its own forked RNG streams on the sim clock,
// so fault injection is exactly as reproducible as a clean run: the
// rendered table — every normalized cell — is byte-identical.
func TestFaultExperimentDeterminism(t *testing.T) {
	a := RunFaults().Table().String()
	b := RunFaults().Table().String()
	if a != b {
		t.Fatalf("identical faulted runs diverged:\n%s\nvs\n%s", a, b)
	}
}

// The fault experiment must stay deterministic under the parallel
// harness: running its spec sequentially and inside a worker pool
// produces byte-identical tables.
func TestFaultExperimentDeterministicUnderParallelRunAll(t *testing.T) {
	spec, ok := Lookup("isolation-under-faults")
	if !ok {
		t.Fatal("isolation-under-faults not registered")
	}
	render := func(results []Result) string {
		out := ""
		for _, r := range results {
			for _, s := range r.Output.Sections {
				out += s.Table.String() + "\n"
			}
		}
		return out
	}
	// Run the spec alongside other work so the pool genuinely
	// interleaves, then alone; the fault table must not change.
	fig5, _ := Lookup("fig5")
	seq := render(RunAll([]Spec{spec}, 1))
	par := render(RunAll([]Spec{fig5, spec, fig5}, 3))
	if !strings.Contains(par, seq) {
		t.Fatalf("fault table changed under parallel RunAll:\nsequential:\n%s\nparallel batch:\n%s", seq, par)
	}
}

func TestDiskExperimentDeterminism(t *testing.T) {
	a := RunTable4()
	b := RunTable4()
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Fatalf("row %d diverged: %+v vs %+v", i, a.Rows[i], b.Rows[i])
		}
	}
}
