package scenario

import "testing"

// FuzzParse asserts the spec parser never panics and never returns a
// spec that fails validation on arbitrary input. Run with
// `go test -fuzz=FuzzParse ./internal/scenario` for a real campaign;
// the seed corpus runs as part of the normal suite.
func FuzzParse(f *testing.F) {
	f.Add([]byte(validSpec))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"machine":"pmake8","spus":[{"name":"u"}],"jobs":[{"type":"copy","spu":"u","name":"c","bytes":1}]}`))
	f.Add([]byte(`{"spus":[{"name":"u","weight":-5}],"jobs":[{"type":"vcs","spu":"u","name":"v"}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(oversizedCopySpec))
	for doc := range badDiskSpecs {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(data)
		if err != nil {
			return
		}
		// A spec that parsed must re-validate cleanly.
		if verr := spec.validate(); verr != nil {
			t.Fatalf("Parse accepted a spec that fails validate: %v", verr)
		}
	})
}
