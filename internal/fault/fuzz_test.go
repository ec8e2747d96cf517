package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// nonFiniteSpecs are severities NaN and ±Inf, which every range check
// of Event.validate used to let through (NaN fails every comparison).
var nonFiniteSpecs = []string{
	"cpu-slow:0:100ms:1s:NaN",
	"disk-fail:0:100ms:1s:NaN",
	"mem-loss:0:100ms:1s:NaN",
	"disk-slow:0:100ms:1s:+Inf",
}

func TestParsePlanRejectsNonFiniteSeverity(t *testing.T) {
	for _, spec := range append(nonFiniteSpecs, "cpu-off:0:1s:1s:-Inf", "disk-slow:0:1s:1s:inf") {
		_, err := ParsePlan(spec)
		if err == nil || !strings.Contains(err.Error(), "is not finite") {
			t.Errorf("ParsePlan(%q) = %v, want a non-finite severity error", spec, err)
		}
	}
}

// FuzzParsePlan: ParsePlan never panics, every plan it accepts has
// finite severities inside each kind's range, and the plan's String
// parses back to the same plan.
func FuzzParsePlan(f *testing.F) {
	for _, spec := range append(nonFiniteSpecs,
		"disk-fail:0:1s:1s:2",
		"disk-slow:0:2s:3s:4,cpu-off:1:1s:2s,mem-loss:0:5s:2s:0.25,disk-fail:1:500ms:0s,cpu-slow:3:1s:0s:0.5",
		"cpu-off:1:1s:2s:7",
		"",
	) {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return
		}
		for _, e := range p.Events {
			if math.IsNaN(e.Severity) || math.IsInf(e.Severity, 0) {
				t.Fatalf("%q: accepted severity %g", spec, e.Severity)
			}
			if err := e.validate(); err != nil {
				t.Fatalf("%q: accepted %v: %v", spec, e, err)
			}
		}
		q, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("%q: String %q does not parse: %v", spec, p.String(), err)
		}
		if q.String() != p.String() || !reflect.DeepEqual(q.Events, p.Events) {
			t.Fatalf("%q: String %q parses to %+v, want %+v", spec, p.String(), q.Events, p.Events)
		}
	})
}
