package scenario

import (
	"encoding/json"
	"strings"
	"testing"
)

const validSpec = `{
  "machine": "memory-isolation",
  "scheme": "PIso",
  "spus": [
    {"name": "alice", "weight": 1, "disk": 0},
    {"name": "bob", "weight": 2, "disk": 1}
  ],
  "jobs": [
    {"type": "pmake", "spu": "alice", "name": "build", "parallel": 2, "wss_pages": 100},
    {"type": "copy", "spu": "bob", "name": "backup", "bytes": 2097152},
    {"type": "compute", "spu": "bob", "name": "sim", "compute_ms": 500}
  ]
}`

func TestParseAndRun(t *testing.T) {
	spec, err := Parse([]byte(validSpec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanSecs <= 0 || res.CPUUtilization <= 0 {
		t.Fatalf("result: %+v", res)
	}
	if len(res.Jobs) != 3 {
		t.Fatalf("jobs = %d", len(res.Jobs))
	}
	for _, j := range res.Jobs {
		if j.RespSecs <= 0 {
			t.Fatalf("job %q has no response time", j.Name)
		}
	}
	// Round-trips as JSON.
	var back Result
	if err := json.Unmarshal([]byte(res.JSON()), &back); err != nil {
		t.Fatal(err)
	}
	if back.Jobs[0].Name != "build" {
		t.Fatal("JSON round trip lost data")
	}
}

func TestRunServerJobReportsLatency(t *testing.T) {
	spec, err := Parse([]byte(`{
	  "machine": "cpu-isolation", "scheme": "PIso",
	  "spus": [{"name": "svc"}],
	  "jobs": [{"type": "server", "spu": "svc", "name": "api", "requests": 20, "interarrival_ms": 5}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].MaxLatencySecs <= 0 {
		t.Fatal("server job missing latency")
	}
}

func TestDefaultsMachineSchemeWeight(t *testing.T) {
	spec, err := Parse([]byte(`{
	  "spus": [{"name": "u"}],
	  "jobs": [{"type": "vcs", "spu": "u", "name": "v"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestValidationErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":        `{`,
		"unknown machine": `{"machine": "cray", "spus": [{"name":"u"}], "jobs":[{"type":"vcs","spu":"u","name":"v"}]}`,
		"unknown scheme":  `{"scheme": "FIFO", "spus": [{"name":"u"}], "jobs":[{"type":"vcs","spu":"u","name":"v"}]}`,
		"no spus":         `{"jobs":[{"type":"vcs","spu":"u","name":"v"}]}`,
		"no jobs":         `{"spus": [{"name":"u"}]}`,
		"dup spu":         `{"spus": [{"name":"u"},{"name":"u"}], "jobs":[{"type":"vcs","spu":"u","name":"v"}]}`,
		"empty spu name":  `{"spus": [{"name":""}], "jobs":[{"type":"vcs","spu":"","name":"v"}]}`,
		"unknown spu":     `{"spus": [{"name":"u"}], "jobs":[{"type":"vcs","spu":"x","name":"v"}]}`,
		"unknown type":    `{"spus": [{"name":"u"}], "jobs":[{"type":"quake","spu":"u","name":"v"}]}`,
		"copy no bytes":   `{"spus": [{"name":"u"}], "jobs":[{"type":"copy","spu":"u","name":"v"}]}`,
		"copy too big":    oversizedCopySpec,
	}
	for label, doc := range cases {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("%s: expected error", label)
		} else if !strings.Contains(err.Error(), "scenario") {
			t.Errorf("%s: error %v lacks package prefix", label, err)
		}
	}
}

// oversizedCopySpec copies a file larger than any disk of its machine;
// the kernel would panic submitting sectors past the disk's end.
const oversizedCopySpec = `{"machine":"memory-isolation","spus":[{"name":"a"}],"jobs":[{"type":"copy","spu":"a","name":"big","bytes":100000000000}]}`

// badDiskSpecs name a disk the machine does not have; the kernel would
// panic on them, so Parse must refuse them.
var badDiskSpecs = map[string]string{
	`{"machine":"memory-isolation","spus":[{"name":"a","disk":2}],"jobs":[{"type":"pmake","spu":"a","name":"j"}]}`:  `scenario: SPU "a" disk 2 out of range (memory-isolation has 2 disks)`,
	`{"machine":"memory-isolation","spus":[{"name":"a","disk":-1}],"jobs":[{"type":"pmake","spu":"a","name":"j"}]}`: `scenario: SPU "a" disk -1 out of range (memory-isolation has 2 disks)`,
}

func TestDiskOutOfRange(t *testing.T) {
	for doc, want := range badDiskSpecs {
		if _, err := Parse([]byte(doc)); err == nil || err.Error() != want {
			t.Errorf("Parse(%s) = %v, want %q", doc, err, want)
		}
	}
}

func TestScenarioDeterministic(t *testing.T) {
	run := func() string {
		spec, err := Parse([]byte(validSpec))
		if err != nil {
			t.Fatal(err)
		}
		res, err := spec.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.JSON()
	}
	if a, b := run(), run(); a != b {
		t.Fatal("identical scenarios diverged")
	}
}
