package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// censusByModule pins the per-module event census of every workload
// under the default scheme. The counts are simulated-event counts, so
// any change to them means the observed machine dispatched different
// events, not that the host was slower.
var censusByModule = map[string]map[string]uint64{
	"pmake8":  {"auditor": 492, "disk": 1600, "fs": 128, "kernel": 550, "lock": 3200, "sched": 1280},
	"cpu":     {"auditor": 448, "disk": 48, "fs": 6, "kernel": 500, "lock": 390, "sched": 1216},
	"mem":     {"auditor": 349, "disk": 384, "fs": 32, "kernel": 389, "lock": 800, "sched": 448},
	"disk":    {"auditor": 1321, "disk": 1220, "fs": 20, "kernel": 1479, "lock": 10740, "sched": 887},
	"tenants": {"auditor": 1248, "disk": 260, "kernel": 1396, "lock": 2080, "proc": 1150, "sched": 5566},
}

// TestSimObsCensusPinned runs each workload with -simobs and sums the
// simobs_class counts per module against the pinned table. Every JSONL
// line must carry a type, and the retired cross-domain edge lines must
// not come back.
func TestSimObsCensusPinned(t *testing.T) {
	for name, want := range censusByModule {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "simobs.jsonl")
			var out, errOut strings.Builder
			if code := run([]string{"-workload", name, "-simobs", path}, &out, &errOut); code != 0 {
				t.Fatalf("exit code %d, stderr %q", code, errOut.String())
			}
			for _, section := range []string{"event census", "host-time attribution"} {
				if !strings.Contains(out.String(), section) {
					t.Fatalf("stdout lacks %q", section)
				}
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			got := map[string]uint64{}
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var line struct {
					Type   string `json:"type"`
					Module string `json:"module"`
					Count  uint64 `json:"count"`
				}
				if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
					t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
				}
				switch line.Type {
				case "":
					t.Fatalf("line without type: %q", sc.Text())
				case "simobs_edge":
					t.Fatalf("unexpected edge line: %q", sc.Text())
				case "simobs_class":
					got[line.Module] += line.Count
				}
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("census by module = %v, want %v", got, want)
			}
		})
	}
}
