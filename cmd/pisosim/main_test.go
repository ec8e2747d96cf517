package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perfiso"
)

// Every documented -workload name must resolve through the registry,
// and every registry entry must build a bootable system.
func TestWorkloadNamesResolve(t *testing.T) {
	for _, name := range []string{"pmake8", "cpu", "mem", "disk"} {
		w, ok := perfiso.LookupWorkload(name)
		if !ok {
			t.Errorf("-workload %s does not resolve", name)
			continue
		}
		if w.Build == nil || w.Desc == "" {
			t.Errorf("workload %q is incomplete: %+v", name, w)
		}
	}
	if _, ok := perfiso.LookupWorkload("bogus"); ok {
		t.Fatal("LookupWorkload accepted an unknown name")
	}
	if names := perfiso.WorkloadNames(); len(names) != len(perfiso.Workloads()) {
		t.Fatalf("WorkloadNames() = %v", names)
	}
}

func TestRunUnknownWorkloadFails(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-workload", "bogus"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown workload") {
		t.Fatalf("stderr = %q", errOut.String())
	}
}

func TestRunUnknownSchemeFails(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-scheme", "XYZ"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown scheme") {
		t.Fatalf("stderr = %q", errOut.String())
	}
}

func TestRunBadFlagFails(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

func TestRunBadFaultSpecFails(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-faults", "disk-slow:0:1s"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "fault:") {
		t.Fatalf("stderr = %q", errOut.String())
	}
}

// A spec naming a disk the machine lacks, or copying a file larger than
// its disk, is a clean usage error, not a kernel panic.
func TestRunSpecBadDiskFails(t *testing.T) {
	for doc, want := range map[string]string{
		`{"machine":"memory-isolation","spus":[{"name":"a","disk":2}],"jobs":[{"type":"pmake","spu":"a","name":"j"}]}`:              `scenario: SPU "a" disk 2 out of range (memory-isolation has 2 disks)`,
		`{"machine":"memory-isolation","spus":[{"name":"a"}],"jobs":[{"type":"copy","spu":"a","name":"big","bytes":100000000000}]}`: `scenario: copy job "big" of 100000000000 bytes does not fit on disk 0 of memory-isolation`,
	} {
		path := filepath.Join(t.TempDir(), "bad-disk.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errOut strings.Builder
		if code := run([]string{"-spec", path}, &out, &errOut); code != 1 {
			t.Fatalf("%s: exit code %d, want 1", doc, code)
		}
		if !strings.Contains(errOut.String(), want) || strings.Contains(errOut.String(), "panic:") {
			t.Fatalf("stderr = %q, want %q", errOut.String(), want)
		}
	}
}

// Smoke test: a faulted run completes and the report includes the
// injector summary with the retries the degradation layers performed.
func TestRunFaultedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full simulation")
	}
	var out, errOut strings.Builder
	code := run([]string{"-workload", "mem", "-scheme", "PIso",
		"-faults", "disk-fail:0:200ms:2s:0.5,cpu-off:0:500ms:1s"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "faults: injected 2, healed 2") {
		t.Fatalf("stdout missing fault summary:\n%s", out.String())
	}
}

// The SMP memory workload under the CI fault plan: the cpu-off heal
// rebalances the machine, turning SMP threads' foreign occupancy into
// loans, and the auditor must not bill their earlier wait as a missed
// revocation.
func TestRunFaultedSMPMemWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full simulations")
	}
	for _, extra := range [][]string{nil, {"-unbalanced"}} {
		args := append([]string{"-workload", "mem", "-scheme", "SMP", "-faults", ciFaultPlan}, extra...)
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("%v: exit code %d, stderr: %s", args, code, errOut.String())
		}
		if !strings.Contains(out.String(), "faults: injected 3, healed 3") {
			t.Fatalf("%v: stdout missing fault summary:\n%s", args, out.String())
		}
	}
}

// Smoke test: dispatch the disk workload end to end through the
// registry and check the report reaches stdout.
func TestRunDiskWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full simulation")
	}
	var out, errOut strings.Builder
	code := run([]string{"-workload", "disk", "-scheme", "PIso"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"pmake", "copy", "disk: mean wait", "makespan"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("stdout missing %q:\n%s", want, out.String())
		}
	}
}

// -out naming an existing regular file is an I/O error (exit 1) reported
// after the run, not a panic.
func TestRunOutOnRegularFileFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full simulation")
	}
	path := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{"-workload", "mem", "-out", path}, &out, &errOut); code != 1 {
		t.Fatalf("exit code %d, want 1; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "not a directory") || strings.Contains(errOut.String(), "panic:") {
		t.Fatalf("stderr = %q", errOut.String())
	}
	if strings.Contains(out.String(), "artifacts written") {
		t.Fatalf("stdout claims artifacts were written:\n%s", out.String())
	}
}
