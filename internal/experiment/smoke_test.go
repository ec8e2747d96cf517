package experiment

import (
	"testing"
)

// TestSmokePrintAll runs every experiment once and prints the tables;
// run with -v to inspect the shapes during development.
func TestSmokePrintAll(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test is slow")
	}
	p := RunPmake8()
	t.Logf("\n%s", p.Fig2Table())
	t.Logf("\n%s", p.Fig3Table())
	c := RunCPUIso()
	t.Logf("\n%s", c.Table())
	m := RunMemIso()
	t.Logf("\n%s", m.Table())
	d3 := RunTable3()
	t.Logf("\n%s", d3.Table())
	d4 := RunTable4()
	t.Logf("\n%s", d4.Table())
}
