package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// ciFaultPlan is the fault plan of the CI fault smoke step.
const ciFaultPlan = "disk-fail:0:500ms:2s:0.5,cpu-off:0:1s:2s,mem-loss:0:1s:1s:0.2"

// goldenArtifacts holds, per pisosim -out run, the SHA-256 of stdout
// (with the output directory replaced by "$DIR") and of every file the
// run writes there. The tenants run pins the controller's defaults-only header
// (step, decay, floor, burn thresholds); both runs pin the -timeline
// sparkline next to the sampled usage table.
var goldenArtifacts = map[string]map[string]string{
	"pmake8/SMP/faults": {
		"stdout":        "ad591659c1c37e12dc552fc0edd6e58a76fb544d22d41dde38327e1fb624da00",
		"metrics.jsonl": "54cf81f13b453e99a6382d0be8e196b0331d4df4c8a7d70126231eed1af38b65",
		"trace.json":    "5e9ad0cad14e6348f59ba86dc427263f4e7231637aa3d7b601f242c498539a98",
		"profile.pb.gz": "e23b543d0cbe88992f7b21164dcb6184b3811bf31d4fa9c898b919ae7faad296",
		"spans.jsonl":   "d8fd6b136106529825812ff566043d6fa9891ddb5300569ca5571203af7658af",
	},
	"tenants/PIso/adaptive": {
		"stdout":           "d04664c333e2dd31cabb7af6f190180991a85e378bf8c19712118f602e2b70b8",
		"controller.jsonl": "8a9338953b1dddb202e8eca4bba4d54be94089bfc1eabec3688507c3be7d9ce1",
		"latency.jsonl":    "904dfb5cb67098256dccf414c267a16f84fe5ebde0a7c640f2e9998e187843bf",
		"metrics.jsonl":    "bdc8e66c181d9a9ca50695cab22c51768475933d22f44fb0a9fa4ad78eabfa37",
		"trace.json":       "e4b4b82ef646b79e89ce1cf7a98a2848f338ad96739a460f547d4f254dbd5fe2",
		"profile.pb.gz":    "81fd2e54aa79708453342141bd95df9b86fd7e38317213ccf3a2271cac5b932c",
		"spans.jsonl":      "02e1e237e0e42b7c59c4b8a0b1aac200ecd96f4f383006328ee83cf19e2d9286",
	},
}

// artifactRuns lists each golden run's arguments; "$DIR" is the run's
// output directory.
var artifactRuns = map[string][]string{
	"tenants/PIso/adaptive": {"-workload", "tenants", "-scheme", "PIso", "-adaptive",
		"-out", "$DIR", "-timeline", "-trace", "50"},
	"pmake8/SMP/faults": {"-workload", "pmake8", "-scheme", "SMP", "-faults", ciFaultPlan,
		"-out", "$DIR", "-timeline"},
}

func TestGoldenArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two fully observed simulations")
	}
	names := make([]string, 0, len(artifactRuns))
	for name := range artifactRuns {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		dir := t.TempDir()
		args := make([]string, len(artifactRuns[name]))
		for i, a := range artifactRuns[name] {
			args[i] = strings.ReplaceAll(a, "$DIR", dir)
		}
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("%s: exit %d: %s", name, code, errOut.String())
		}
		got := map[string]string{"stdout": digest([]byte(strings.ReplaceAll(out.String(), dir, "$DIR")))}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(filepath.Join(dir, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			got[f.Name()] = digest(data)
		}
		want := goldenArtifacts[name]
		for file, sum := range got {
			if w, ok := want[file]; !ok {
				t.Errorf("%s: %s: no golden digest (got %s)", name, file, sum)
			} else if sum != w {
				t.Errorf("%s: %s: digest %s, golden %s", name, file, sum, w)
			}
		}
		for file := range want {
			if _, ok := got[file]; !ok {
				t.Errorf("%s: %s: golden digest but no such output", name, file)
			}
		}
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
