package main

import (
	"encoding/json"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// rep share its run id; parent 0 marks the rep's root span.
type span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the benchmark started
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the benchmark ends. A nil log
// records nothing, so the timed pass pays no tracing cost.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// at converts a host instant to nanoseconds since the log's epoch.
func (l *spanLog) at(t time.Time) int64 {
	if l == nil {
		return 0
	}
	return int64(t.Sub(l.epoch))
}

// add records s under run with the given parent and returns its id.
func (l *spanLog) add(run string, parent int, s span) int {
	s.Run, s.ID, s.Parent = run, len(l.spans)+1, parent
	l.spans = append(l.spans, s)
	return s.ID
}

// write stores the log as JSONL at path.
func (l *spanLog) write(path string) error {
	return writeJSONL(path, func(enc *json.Encoder) error {
		for _, s := range l.spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		return nil
	})
}
