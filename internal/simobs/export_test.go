package simobs

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand/v2"
	"testing"

	"perfiso/internal/sim"
)

// The line shapes the report was written from before it went through
// the artifact encoder, kept as the reference: encoding/json over these
// structs gives the bytes WriteJSONL must keep.

type scenarioLine struct {
	Type     string `json:"type"`
	Scenario string `json:"scenario"`
	Events   uint64 `json:"events"`
	Samples  uint64 `json:"samples"`
}

type queueLine struct {
	Type     string `json:"type"`
	Scenario string `json:"scenario"`
	Pushes   uint64 `json:"pushes"`
	Pending  int    `json:"pending"`
}

type classLine struct {
	Type     string `json:"type"`
	Scenario string `json:"scenario"`
	Name     string `json:"name"`
	Module   string `json:"module"`
	Count    uint64 `json:"count"`
}

type hostLine struct {
	Type     string `json:"type"`
	Scenario string `json:"scenario"`
	Name     string `json:"name"`
	Module   string `json:"module"`
	HostNS   int64  `json:"host_ns"`
}

type windowLine struct {
	Type         string `json:"type"`
	Scenario     string `json:"scenario"`
	Events       uint64 `json:"events"`
	HostNS       int64  `json:"host_ns"`
	GCCycles     uint64 `json:"gc_cycles"`
	AllocObjects uint64 `json:"alloc_objects"`
	AllocBytes   uint64 `json:"alloc_bytes"`
}

func referenceJSONL(w io.Writer, r *Report) error {
	enc := json.NewEncoder(w)
	lines := []any{
		scenarioLine{"simobs_scenario", r.Scenario, r.Events, r.Samples},
		queueLine{"simobs_queue", r.Scenario, r.Queue.Pushes, r.Queue.Len},
	}
	for _, c := range r.Classes {
		lines = append(lines, classLine{"simobs_class", r.Scenario, c.Name, c.Module, c.Count})
	}
	for _, c := range r.Classes {
		if c.HostNS != 0 {
			lines = append(lines, hostLine{"simobs_host", r.Scenario, c.Name, c.Module, c.HostNS})
		}
	}
	for _, win := range r.Windows {
		lines = append(lines, windowLine{"simobs_window", r.Scenario, win.Events, win.HostNS, win.GCCycles, win.AllocObjects, win.AllocBytes})
	}
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			return err
		}
	}
	return nil
}

// randomReport fills every field of a report with random values: the
// full unsigned range, negative host times, and names from names.
func randomReport(rng *rand.Rand, classes, windows int, names []string) *Report {
	name := func() string { return names[rng.IntN(len(names))] }
	r := &Report{Scenario: name(), Events: rng.Uint64(), Samples: rng.Uint64(),
		Queue: sim.QueueStats{Len: rng.IntN(1 << 20), Pushes: rng.Uint64()}}
	for i := 0; i < classes; i++ {
		var host int64
		if rng.IntN(3) > 0 {
			host = rng.Int64() >> rng.IntN(63)
		}
		r.Classes = append(r.Classes, sim.ObsClassStat{Name: name(), Module: name(), Count: rng.Uint64(), HostNS: host})
	}
	for i := 0; i < windows; i++ {
		r.Windows = append(r.Windows, sim.ObsWindow{Events: rng.Uint64(), HostNS: rng.Int64() - rng.Int64(),
			GCCycles: rng.Uint64(), AllocObjects: rng.Uint64(), AllocBytes: rng.Uint64()})
	}
	return r
}

// Random reports are byte-identical to the struct encoding.
func TestWriteJSONLMatchesStructEncoding(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 6))
	names := []string{"", "disk.complete", "kernel", `q"<&>`, "\x01\u2028\xff"}
	for round := 0; round < 300; round++ {
		r := randomReport(rng, rng.IntN(6), rng.IntN(4), names)
		var want, got bytes.Buffer
		if err := referenceJSONL(&want, r); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteJSONL(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("round %d: JSONL differs from the struct encoding:\ngot:\n%s\nwant:\n%s", round, got.Bytes(), want.Bytes())
		}
	}
}

// A report with ten times as many classes and windows costs no more
// allocations to write.
func TestWriteJSONLAllocationsDoNotGrowWithLines(t *testing.T) {
	allocs := func(n int) float64 {
		r := randomReport(rand.New(rand.NewPCG(31, 7)), n, n, []string{"disk.complete", "kernel", "sched"})
		return testing.AllocsPerRun(20, func() {
			if err := r.WriteJSONL(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(10), allocs(100); many != few {
		t.Fatalf("WriteJSONL allocates %v times for 10 classes and windows and %v for 100", few, many)
	}
}
