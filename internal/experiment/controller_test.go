package experiment

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSLOControllerSeparation is the acceptance gate for the closed
// loop: under the same diurnal load shift composed with disk-slow and
// cpu-off faults, adaptive PIso holds every tenant SLO, static PIso
// misses at least one, and SMP misses more than static — and the
// adaptive run actually adapted (retunes and boosts happened, the
// degraded disk tripped its breaker). The invariant auditor runs
// fail-fast inside every kernel here, so the run completing at all
// certifies zero violations of the conservation, floor, and bounded-
// actuation laws.
func TestSLOControllerSeparation(t *testing.T) {
	r := RunSLOController()
	misses := func(config string) int {
		c := r.Config(config)
		if c == nil {
			t.Fatalf("missing frontier row %q", config)
		}
		return c.Tenants - c.Held
	}
	if m := misses("PIso-adaptive"); m != 0 {
		t.Errorf("adaptive PIso misses %d SLOs, want 0:\n%s", m, r.Table())
	}
	if m := misses("PIso-static"); m < 1 {
		t.Errorf("static PIso misses %d SLOs, want >= 1", m)
	}
	if smp, static := misses("SMP"), misses("PIso-static"); smp <= static {
		t.Errorf("SMP misses %d SLOs, static PIso %d; want SMP to miss more", smp, static)
	}
	ad := r.Config("PIso-adaptive")
	if ad.Stats.Retunes == 0 || ad.Stats.Boosts == 0 {
		t.Errorf("adaptive run did not adapt: %+v", ad.Stats)
	}
	if ad.Stats.Trips == 0 {
		t.Errorf("disk-slow fault did not trip the breaker: %+v", ad.Stats)
	}
	// The frontier's point: the SLOs are not bought with throughput.
	// Noise keeps within a few percent of what it gets without the
	// controller.
	st := r.Config("PIso-static")
	if ad.NoiseCPU < st.NoiseCPU*0.9 {
		t.Errorf("controller cost noise %.2fs of CPU (static %.2fs); degradation should be graceful",
			st.NoiseCPU-ad.NoiseCPU, st.NoiseCPU)
	}
	for _, cfg := range []string{"SMP", "PIso-static", "PIso-adaptive"} {
		if c := r.Config(cfg); c.Util <= 0 {
			t.Errorf("%s reports zero utilization", cfg)
		}
	}
}

// The controller artifact joins the determinism contract: byte-
// identical at any -parallel level, valid JSONL, one experiment header
// per configuration that ran with the loop on, and the decision lines
// inside carry sim-time stamps only.
func TestControllerArtifactDeterministicAcrossParallel(t *testing.T) {
	s, ok := Lookup("slo-controller")
	if !ok {
		t.Fatal("missing spec slo-controller")
	}
	specs := []Spec{s}
	render := func(parallel int) string {
		var buf bytes.Buffer
		if err := ControllerJSONL(RunAll(specs, parallel), &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("controller artifact differs between -parallel 1 and 8:\n--- seq ---\n%.600s\n--- par ---\n%.600s", seq, par)
	}
	var headers int
	types := make(map[string]int)
	for _, line := range strings.Split(strings.TrimSpace(seq), "\n") {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("artifact line is not JSON: %s", line)
		}
		kind, _ := obj["type"].(string)
		types[kind]++
		if kind == "experiment" {
			headers++
		}
	}
	// Only the adaptive configuration runs the loop.
	if headers != 1 {
		t.Fatalf("artifact has %d experiment headers, want 1", headers)
	}
	for _, kind := range []string{"controller", "control"} {
		if types[kind] == 0 {
			t.Fatalf("artifact has no %q lines; types seen: %v", kind, types)
		}
	}
	if strings.Contains(seq, "wall") {
		t.Fatal("controller artifact mentions wall time")
	}
}
