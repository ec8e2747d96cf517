package kernel

import (
	"bytes"
	"slices"
	"testing"

	"perfiso/internal/control"
	"perfiso/internal/latency"
	"perfiso/internal/sim"
)

// Artifacts lists exactly the exports of the observers that are on, in
// the fixed order, and every listed writer succeeds and writes something
// after a run. An observer that is off contributes no entry, and a
// latency registry without a stream has nothing to export.
func TestArtifactsFollowObservers(t *testing.T) {
	metricsOn := Options{MetricsPeriod: 50 * sim.Millisecond}
	all := metricsOn
	all.Profiled = true
	all.Control = control.Config{Enabled: true}
	cases := []struct {
		name   string
		opts   Options
		stream bool // register one latency stream after the run
		want   []string
	}{
		{"dark", Options{}, false, nil},
		{"metrics", metricsOn, false, []string{"metrics.jsonl", "trace.json"}},
		{"profiled", Options{Profiled: true}, false, []string{"profile.pb.gz", "spans.jsonl"}},
		{"latency", Options{LatencyWindow: 100 * sim.Millisecond}, true, []string{"latency.jsonl"}},
		// The controller brings the latency registry it reads.
		{"controller", Options{Control: control.Config{Enabled: true}}, true, []string{"latency.jsonl", "controller.jsonl"}},
		// With no stream the breakers still act, so the decision log
		// stays while the empty latency export goes.
		{"controller-without-streams", Options{Control: control.Config{Enabled: true}}, false, []string{"controller.jsonl"}},
		{"all", all, true, []string{"metrics.jsonl", "trace.json", "profile.pb.gz", "spans.jsonl", "latency.jsonl", "controller.jsonl"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := metricsRun(t, c.opts)
			if c.stream {
				k.Latency().Tracker("req", k.SPUs().Users()[0].ID(), latency.SLO{})
			}
			var names []string
			for _, a := range k.Artifacts() {
				names = append(names, a.Name)
				var buf bytes.Buffer
				if err := a.Write(&buf); err != nil {
					t.Errorf("%s: %v", a.Name, err)
				} else if buf.Len() == 0 {
					t.Errorf("%s: listed but empty", a.Name)
				}
			}
			if !slices.Equal(names, c.want) {
				t.Fatalf("Artifacts() = %v, want %v", names, c.want)
			}
		})
	}
}
