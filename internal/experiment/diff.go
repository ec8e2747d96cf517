package experiment

import (
	"encoding/json"
	"fmt"
	"strings"

	"perfiso/internal/stats"
)

// Diff compares two pisobench evaluation reports (bench.json) and
// renders a textual comparison. Both files must carry "suite":"pisobench".
// The diff is report-only — it never declares a regression, it shows
// what moved so the reader can. Deterministic quantities (simulation
// events, table cells, latency percentiles) only move when behavior
// changed; wall-clock rates move run to run and are labelled as such.
// Simulator speed is measured and judged by the benchmark module
// (bash benchmark/run.sh, then -compare), not here.
func Diff(oldData, newData []byte, oldName, newName string) (string, error) {
	ob, err := parseReport(oldData, oldName)
	if err != nil {
		return "", err
	}
	nb, err := parseReport(newData, newName)
	if err != nil {
		return "", err
	}
	return diffBench(ob, nb, oldName, newName), nil
}

// parseReport decodes one evaluation report, refusing anything whose
// "suite" field does not name one.
func parseReport(data []byte, name string) (Bench, error) {
	var b Bench
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("parsing %s: %v", name, err)
	}
	switch b.Suite {
	case "pisobench":
		return b, nil
	case "":
		return b, fmt.Errorf("%s: no \"suite\" field — not a pisobench report", name)
	default:
		return b, fmt.Errorf("%s: unknown suite %q", name, b.Suite)
	}
}

// pctDelta renders the relative change between two values.
func pctDelta(old, new float64) string {
	if old == 0 {
		if new == 0 {
			return "+0.0%"
		}
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (new-old)/old*100)
}

// diffBench compares two evaluation reports: experiment membership,
// deterministic result cells, tail-latency percentiles, and (clearly
// labelled) wall-clock throughput.
func diffBench(old, new Bench, oldName, newName string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "pisobench diff: %s -> %s\n", oldName, newName)
	fmt.Fprintf(&b, "  old: %d experiments, %d events, parallel=%d, short=%t\n",
		len(old.Experiments), old.Events, old.Parallel, old.Short)
	fmt.Fprintf(&b, "  new: %d experiments, %d events, parallel=%d, short=%t\n\n",
		len(new.Experiments), new.Events, new.Parallel, new.Short)

	oldByID := make(map[string]BenchExperiment, len(old.Experiments))
	for _, e := range old.Experiments {
		oldByID[e.ID] = e
	}
	newIDs := make(map[string]bool, len(new.Experiments))
	for _, e := range new.Experiments {
		newIDs[e.ID] = true
		if _, ok := oldByID[e.ID]; !ok {
			fmt.Fprintf(&b, "added experiment: %s\n", e.ID)
		}
	}
	for _, e := range old.Experiments {
		if !newIDs[e.ID] {
			fmt.Fprintf(&b, "removed experiment: %s\n", e.ID)
		}
	}

	results := stats.NewTable("Changed results (simulation-deterministic: a delta means behavior changed)",
		"Experiment", "Label", "Metric", "Old", "New", "Δ")
	lat := stats.NewTable("Changed tail latency (p99 ms, simulation-deterministic)",
		"Experiment", "Config", "Tenant", "Old", "New", "Δ")
	thr := stats.NewTable("Throughput (wall-clock: varies run to run, not a behavior signal)",
		"Experiment", "Old Mev/s", "New Mev/s", "Δ")
	unchanged := 0
	for _, ne := range new.Experiments {
		oe, ok := oldByID[ne.ID]
		if !ok {
			continue
		}
		if oe.Events != ne.Events {
			fmt.Fprintf(&b, "events changed: %s dispatched %d -> %d\n", ne.ID, oe.Events, ne.Events)
		}
		thr.Addf(ne.ID, oe.EventsPerSec/1e6, ne.EventsPerSec/1e6,
			pctDelta(oe.EventsPerSec, ne.EventsPerSec))

		oldRows := make(map[string]float64, len(oe.Rows))
		for _, r := range oe.Rows {
			oldRows[r.Table+"|"+r.Label+"|"+r.Metric] = r.Value
		}
		for _, r := range ne.Rows {
			ov, ok := oldRows[r.Table+"|"+r.Label+"|"+r.Metric]
			if !ok {
				continue
			}
			if ov == r.Value {
				unchanged++
				continue
			}
			results.Addf(ne.ID, r.Label, r.Metric, ov, r.Value, pctDelta(ov, r.Value))
		}

		oldP99 := make(map[string]TenantLatency)
		for _, ls := range oe.Latency {
			for _, t := range ls.Tenants {
				oldP99[ls.Config+"|"+t.Name] = t
			}
		}
		for _, ls := range ne.Latency {
			for _, t := range ls.Tenants {
				ot, ok := oldP99[ls.Config+"|"+t.Name]
				if !ok || ot.P99NS == t.P99NS {
					continue
				}
				lat.Addf(ne.ID, ls.Config, t.Name,
					float64(ot.P99NS)/1e6, float64(t.P99NS)/1e6,
					pctDelta(float64(ot.P99NS), float64(t.P99NS)))
			}
		}
	}

	b.WriteString("\n")
	if results.NumRows() == 0 {
		fmt.Fprintf(&b, "no result-cell changes (%d cells compared equal)\n", unchanged)
	} else {
		fmt.Fprintf(&b, "%s(%d cells compared equal)\n", results, unchanged)
	}
	if lat.NumRows() > 0 {
		fmt.Fprintf(&b, "\n%s", lat)
	}
	fmt.Fprintf(&b, "\n%s", thr)
	return b.String()
}
