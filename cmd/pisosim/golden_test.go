package main

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"perfiso"
)

// goldenStdout holds the SHA-256 of pisosim's stdout for every
// registered workload × scheme × job distribution, committing the
// byte-identity contract for the single-run path: a refactor keeps
// every digest; a change that moves one changed the simulated results
// (update the entry only when that is intended).
var goldenStdout = map[string]string{
	"cpu/PIso/balanced":       "4d2b803e5f67df6a6fc5090f16d9aaebcac05c3f35de2c039c8fd37d3827ecf1",
	"cpu/PIso/unbalanced":     "4d2b803e5f67df6a6fc5090f16d9aaebcac05c3f35de2c039c8fd37d3827ecf1",
	"cpu/Quo/balanced":        "9afbeeed11a625c662f3dd630c6f31618ffd8ac18592932af0dc5b452bc949d4",
	"cpu/Quo/unbalanced":      "9afbeeed11a625c662f3dd630c6f31618ffd8ac18592932af0dc5b452bc949d4",
	"cpu/SMP/balanced":        "53f522f25a2714d4af925ebbf338ef9f7d3b415d4dc9e27360c5e8838c563406",
	"cpu/SMP/unbalanced":      "53f522f25a2714d4af925ebbf338ef9f7d3b415d4dc9e27360c5e8838c563406",
	"disk/PIso/balanced":      "f5002b177f46843eed66691b41a7114f07e008a8edde3d62a6bda251b8e5cdd5",
	"disk/PIso/unbalanced":    "f5002b177f46843eed66691b41a7114f07e008a8edde3d62a6bda251b8e5cdd5",
	"disk/Quo/balanced":       "3eeeddb76da30eb716577ac21172f0aa8ce974acca00effcd20cddfc97fe5b45",
	"disk/Quo/unbalanced":     "3eeeddb76da30eb716577ac21172f0aa8ce974acca00effcd20cddfc97fe5b45",
	"disk/SMP/balanced":       "0841e9553192af30f3f95f3fbdd7a379c7d3a3ef7b025d41b955466ba586527a",
	"disk/SMP/unbalanced":     "0841e9553192af30f3f95f3fbdd7a379c7d3a3ef7b025d41b955466ba586527a",
	"mem/PIso/balanced":       "f6725e5b324f901cfe21309bcc6d2333d43cb34bdbd70b7d3ae53543cd7472bd",
	"mem/PIso/unbalanced":     "ddcfa5cfc8740e5e1c1383e2a04dc3c4bd4b0e2525c3a981ace6e16bff4a3354",
	"mem/Quo/balanced":        "ed90d7f3fc61cf3dea2ceeae804da60b745a6c9e24feb46cef581d8c235287b9",
	"mem/Quo/unbalanced":      "df0dc0994d554848924218164a5f7bc8c1d900b72a17414380c0e40b2f49bd15",
	"mem/SMP/balanced":        "e14607ebfc5e266c375c78def59f4812bc72703ab6d61571402b0874637f5d66",
	"mem/SMP/unbalanced":      "f5f8b8132f2cb0e698762ee4709789ff58bfac2fb207eea569d87c22c909bda0",
	"pmake8/PIso/balanced":    "1609a7ad8b60bfa740a43a8af1cd471095fc365a14009ff513946a29e22febc9",
	"pmake8/PIso/unbalanced":  "cc134b1a2e8d11596dc73f6574da52b00994482772df1e58e4a9af6de6fceca5",
	"pmake8/Quo/balanced":     "681d7f71639c17231bdb8a94e4c01b325b571dc5549f23c8d472db60b9c633dc",
	"pmake8/Quo/unbalanced":   "84d93761b5781b59156a76794c64f97652d3f2865d6deef8ad7acc3f225171b6",
	"pmake8/SMP/balanced":     "bb819de2e2a374b84cbe9b89c531583f1c97586b5e9df9e3fa4ac415a78a8ff7",
	"pmake8/SMP/unbalanced":   "ee498d9f5165c93b8d7ac7c0932a533350554abcdd8d98df1c15f6b969721659",
	"tenants/PIso/balanced":   "2ac0d185309170f00e9c9b0ec81b10ca0ec2fe0ac6dd8e627f64e1816e329048",
	"tenants/PIso/unbalanced": "2ac0d185309170f00e9c9b0ec81b10ca0ec2fe0ac6dd8e627f64e1816e329048",
	"tenants/Quo/balanced":    "2a3e186177737019285dcfc6d3e070feb82aa2a90b8cd6e1e17602dc403c5e08",
	"tenants/Quo/unbalanced":  "2a3e186177737019285dcfc6d3e070feb82aa2a90b8cd6e1e17602dc403c5e08",
	"tenants/SMP/balanced":    "3597dcf74ce15f7bb92a76799402f8b05cc33886fc28ff109231cc7e99e17c6e",
	"tenants/SMP/unbalanced":  "3597dcf74ce15f7bb92a76799402f8b05cc33886fc28ff109231cc7e99e17c6e",
}

func TestGoldenStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload under every scheme")
	}
	got := map[string]string{}
	for _, w := range perfiso.WorkloadNames() {
		for _, scheme := range []string{"SMP", "Quo", "PIso"} {
			for _, balance := range []string{"balanced", "unbalanced"} {
				args := []string{"-workload", w, "-scheme", scheme}
				if balance == "unbalanced" {
					args = append(args, "-unbalanced")
				}
				var out, errOut strings.Builder
				if code := run(args, &out, &errOut); code != 0 {
					t.Fatalf("%v: exit %d: %s", args, code, errOut.String())
				}
				sum := sha256.Sum256([]byte(out.String()))
				got[w+"/"+scheme+"/"+balance] = hex.EncodeToString(sum[:])
			}
		}
	}
	for name, sum := range got {
		if want, ok := goldenStdout[name]; !ok {
			t.Errorf("%s: no golden digest (got %s)", name, sum)
		} else if sum != want {
			t.Errorf("%s: digest %s, golden %s", name, sum, want)
		}
	}
	for name := range goldenStdout {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden digest but no such run", name)
		}
	}
}
