package stats

import "testing"

func TestQuantileEdgeCases(t *testing.T) {
	if got := Quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty Quantile = %v", got)
	}
	one := []float64{7}
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := Quantile(one, q); got != 7 {
			t.Fatalf("single-sample Quantile(%v)=%v, want 7", q, got)
		}
	}
	vs := []float64{5, 1, 3, 2, 4}
	if Quantile(vs, 0) != 1 || Quantile(vs, 1) != 5 {
		t.Fatalf("extremes: q0=%v q1=%v", Quantile(vs, 0), Quantile(vs, 1))
	}
	if got := Quantile(vs, 0.5); got != 3 {
		t.Fatalf("median %v, want 3", got)
	}
	// The input slice must not be reordered (Quantile sorts a copy).
	if vs[0] != 5 || vs[4] != 4 {
		t.Fatal("Quantile mutated its input")
	}
}
