package metrics

import (
	"bytes"
	"encoding/json"
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/sim"
)

// WriteChromeTrace renders each span as a complete slice on a
// named thread row of its SPU's process, carries the culprit as an
// argument, and connects flow sources to targets with "s"/"f" arrows.
func TestWriteChromeTraceWithSpans(t *testing.T) {
	r, _ := sampleRegistry(t)
	names := Names{core.FirstUserID: "alice", core.FirstUserID + 1: "bob"}
	spans := []SpanEvent{
		{Name: "disk:service", SPU: core.FirstUserID, Track: "disk0",
			Start: 10 * sim.Millisecond, End: 30 * sim.Millisecond,
			FlowID: 7, FlowOut: true},
		{Name: "diskwait", SPU: core.FirstUserID + 1, Track: "reader",
			Start: 5 * sim.Millisecond, End: 30 * sim.Millisecond,
			Culprit: "alice", FlowID: 7, FlowIn: true},
		{Name: "run", SPU: core.FirstUserID + 1, Track: "reader",
			Start: 30 * sim.Millisecond, End: 40 * sim.Millisecond},
	}

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf, nil, names, spans, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid trace JSON:\n%s", buf.String())
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}

	threadNames := map[string]bool{}
	var slices, flowOut, flowIn int
	var culprit string
	waitTID, runTID := -1, -2
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "M":
			if e["name"] == "thread_name" {
				threadNames[e["args"].(map[string]any)["name"].(string)] = true
			}
		case "X":
			slices++
			if e["name"] == "diskwait" {
				culprit = e["args"].(map[string]any)["culprit"].(string)
				waitTID = int(e["tid"].(float64))
			}
			if e["name"] == "run" {
				runTID = int(e["tid"].(float64))
			}
		case "s":
			flowOut++
			if e["id"].(float64) != 7 {
				t.Errorf("flow source id = %v, want 7", e["id"])
			}
		case "f":
			flowIn++
			if e["bp"] != "e" {
				t.Errorf("flow target bp = %v, want \"e\" (bind to enclosing slice)", e["bp"])
			}
		}
	}
	if slices != 3 {
		t.Errorf("complete slices = %d, want 3", slices)
	}
	if !threadNames["disk0"] || !threadNames["reader"] {
		t.Errorf("thread rows = %v, want disk0 and reader", threadNames)
	}
	if culprit != "alice" {
		t.Errorf("diskwait culprit = %q, want alice", culprit)
	}
	if flowOut != 1 || flowIn != 1 {
		t.Errorf("flow events = %d out, %d in; want 1 each", flowOut, flowIn)
	}
	// Both of bob's spans share one thread row.
	if waitTID != runTID {
		t.Errorf("same (SPU, track) got different tids: %d vs %d", waitTID, runTID)
	}
}
