package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"strings"
	"testing"
)

// goldenDigests holds the SHA-256 of every registry section table and
// of the four JSONL artifacts of a whole-registry RunAll. They commit
// the byte-identity contract that lets code be deleted safely: a
// refactor keeps every digest, and a change that moves one changed the
// simulated results (update the entry only when that is intended).
var goldenDigests = map[string]string{
	"abl-affinity":           "ec54fa08e24cede46fb6801b2d71544cd1f425a791c4c72dade3e241b0e0889e",
	"abl-bwthreshold":        "b901ee37e521fbf68bb2641d95f36b68c98fde9fdc5e9a24a2fc3ec0f16b1863",
	"abl-gang":               "8b65b1cd85cf536ff320584086608e2a7fd841788cdf59543d5298931c8c6e80",
	"abl-inodelock":          "e212749d0c7f5afe285459b9b66c5d2f71f7c9cc2bce54d9ef2e85cb03be60b0",
	"abl-network":            "6ba44a04ce5f0ca1191afe36aa75a232ebdc143877843b5d01cb025d4f679ef2",
	"abl-pageinsert":         "7518aedb89bbb1b5643b080a6ea07b817536ee4d17e175cc373236b7dda9178d",
	"abl-reserve":            "f969a0c2752b480beee3c506f6442daeb1d948613968adec0a0e324cab880b15",
	"abl-revocation":         "9dc230c7af0c484ddcda1f49e6a954d38c05b0b1cb33f509161240be734cf399",
	"controller.jsonl":       "a750548a2d60702f499c7dc8a32e36556ed05f2af07b1071d7b5512a953d555b",
	"fig2":                   "0f030414839d8a71e7ea38506a26bcf41c3c30c3db2590bb3ebe1ffdd5833d07",
	"fig3":                   "26ae3aa07af5a4a3652367b916543a3e744f708a024595a4476061a7706b6b59",
	"fig5":                   "051015bfe6a3e32221be5383a893950f9e90311cec28f34563d8af255c0a3db0",
	"fig7":                   "321aee23c6f74dc1658c03ba2856dec9fca5b073b706338c7acd88a81c27afdc",
	"isolation-under-faults": "767494354cc7e5b9b789f58ab8c5deb5166aa96266539d53d8918ef7786bd303",
	"latency.jsonl":          "af24cbddd55f3c5d5f08f57dd57a1367c7b758b53d65a20c3aed4451d40bc859",
	"lock-leak":              "5c174d662dfabaaa8e08441b898fe9e1b843163741b50455416243769ecb87d0",
	"metrics.jsonl":          "a0699ba3f2d3439a46e29114f484ba05e2c2ac626957e8d707b9b1f4ec4716f5",
	"open-arrival":           "4750f08aceb28f8ce97b75a9ea361197d41e7f78f1145c91720d07e3086ed059",
	"open-arrival-breakdown": "76614f8d28b34d47cb879f91799525de5ef94f4f34ecb9c01daf2e3a95b4c7e7",
	"profile.jsonl":          "d39c137695c70783d808ae7432e8cac13748014cb6c5ca36c95752ea016ac5d9",
	"server-latency":         "810e8e8e2e15ae9487d969bc0caeef5de9aebc761c79ce43545c1765ce0ac145",
	"slo-controller":         "75b1c95d83f862d0d041ee8045ff8ee4b2301d659738c7dbe7af22ec4d01691b",
	"slo-frontier":           "0d2ddef8a2aab48c9901f32586ffef2644a910dce13278b8fb22d528dbd741fd",
	"tab3":                   "3dfa99daec38a855706bbfae501054cc79d255652b3009b1b3ba395af8ec858e",
	"tab4":                   "130a62f9dc87951561055153f16777609773d29f63f0e5923a51b980b0045af4",
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry")
	}
	results := RunAll(Registry(), 4)
	got := map[string]string{}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Spec.ID, r.Err)
		}
		for _, s := range r.Output.Sections {
			got[s.ID] = digest(s.Table.String())
		}
	}
	for name, write := range map[string]func([]Result, io.Writer) error{
		"metrics.jsonl":    MetricsJSONL,
		"profile.jsonl":    ProfileJSONL,
		"latency.jsonl":    LatencyJSONL,
		"controller.jsonl": ControllerJSONL,
	} {
		var buf strings.Builder
		if err := write(results, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = digest(buf.String())
	}
	for name, sum := range got {
		if want, ok := goldenDigests[name]; !ok {
			t.Errorf("%s: no golden digest (got %s)", name, sum)
		} else if sum != want {
			t.Errorf("%s: digest %s, golden %s", name, sum, want)
		}
	}
	for name := range goldenDigests {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden digest but no such artifact", name)
		}
	}
}
