package kernel

import (
	"io"
	"slices"
	"testing"

	"perfiso/internal/control"
	"perfiso/internal/sim"
)

// Artifacts lists exactly the exports of the observers that are on, in
// the fixed order, and every listed writer succeeds after a run. An
// observer that is off contributes no entry.
func TestArtifactsFollowObservers(t *testing.T) {
	metricsOn := Options{MetricsPeriod: 50 * sim.Millisecond}
	all := metricsOn
	all.Profiled = true
	all.Control = control.Config{Enabled: true}
	cases := []struct {
		name string
		opts Options
		want []string
	}{
		{"dark", Options{}, nil},
		{"metrics", metricsOn, []string{"metrics.jsonl", "trace.json"}},
		{"profiled", Options{Profiled: true}, []string{"profile.pb.gz", "spans.jsonl"}},
		{"latency", Options{LatencyWindow: 100 * sim.Millisecond}, []string{"latency.jsonl"}},
		// The controller brings the latency registry it reads.
		{"controller", Options{Control: control.Config{Enabled: true}}, []string{"latency.jsonl", "controller.jsonl"}},
		{"all", all, []string{"metrics.jsonl", "trace.json", "profile.pb.gz", "spans.jsonl", "latency.jsonl", "controller.jsonl"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := metricsRun(t, c.opts)
			var names []string
			for _, a := range k.Artifacts() {
				names = append(names, a.Name)
				if err := a.Write(io.Discard); err != nil {
					t.Errorf("%s: %v", a.Name, err)
				}
			}
			if !slices.Equal(names, c.want) {
				t.Fatalf("Artifacts() = %v, want %v", names, c.want)
			}
		})
	}
}
