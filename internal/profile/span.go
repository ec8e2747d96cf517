package profile

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"perfiso/internal/core"
	"perfiso/internal/sim"
)

// Span is one timed interval: a process step ("step:compute"), a state
// segment within it ("runnable", "diskwait", ...), or a disk request
// ("disk:read" with "disk:queue"/"disk:service" children). Parent links
// segments to their step (0 = root); Flow links a wait span to the disk
// service span that resolved it, so the Chrome-trace export can draw an
// arrow from the culprit's activity to the victim's stall.
type Span struct {
	ID      int64
	Parent  int64
	SPU     core.SPUID
	Proc    string
	Name    string
	Culprit core.SPUID
	Start   sim.Time
	End     sim.Time
	Flow    int64
}

// DiskSpans records the span tree for one completed disk request: a
// root "disk:read"/"disk:write" span over the request's lifetime, a
// "disk:queue" child while it sat behind other requests (labelled with
// the culprit SPU served ahead of it), and a "disk:service" child for
// the transfer itself. It returns the service span's ID, which the
// completion window hands to waiters as their flow link.
func (p *Profiler) DiskSpans(spu core.SPUID, kind string, submitted, started, finished sim.Time, culprit core.SPUID) int64 {
	if p == nil {
		return 0
	}
	root := p.allocID()
	p.emit(Span{ID: root, SPU: spu, Proc: "disk", Name: diskSpanName(kind),
		Culprit: culprit, Start: submitted, End: finished})
	if started > submitted {
		p.emit(Span{ID: p.allocID(), Parent: root, SPU: spu, Proc: "disk", Name: "disk:queue",
			Culprit: culprit, Start: submitted, End: started})
	}
	svc := p.allocID()
	p.emit(Span{ID: svc, Parent: root, SPU: spu, Proc: "disk", Name: "disk:service",
		Culprit: spu, Start: started, End: finished})
	return svc
}

// diskSpanName is "disk:" + kind, without building the string for the
// two kinds a disk serves.
func diskSpanName(kind string) string {
	switch kind {
	case "read":
		return "disk:read"
	case "write":
		return "disk:write"
	}
	return "disk:" + kind
}

// WriteSpans writes the stored spans as deterministic JSONL: a header
// line with counts, then one object per span, oldest-first. All times
// are integer simulated nanoseconds; nothing depends on the wall clock.
// It reads the ring in place and appends each line into one reused
// buffer, writing the bytes fmt's %d and %q would.
func (p *Profiler) WriteSpans(w io.Writer) error {
	bw := bufio.NewWriter(w)
	older, newer := p.stored()
	fmt.Fprintf(bw, `{"spans":%d,"dropped":%d}`+"\n", len(older)+len(newer), p.SpansDropped())
	var line []byte
	for _, run := range [2][]Span{older, newer} {
		for i := range run {
			line = appendSpanLine(line[:0], &run[i])
			bw.Write(line)
		}
	}
	return bw.Flush()
}

// appendSpanLine appends s as one JSONL object and a newline.
func appendSpanLine(b []byte, s *Span) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, s.ID, 10)
	b = append(b, `,"parent":`...)
	b = strconv.AppendInt(b, s.Parent, 10)
	b = append(b, `,"spu":`...)
	b = strconv.AppendInt(b, int64(s.SPU), 10)
	b = append(b, `,"proc":`...)
	b = strconv.AppendQuote(b, s.Proc)
	b = append(b, `,"name":`...)
	b = strconv.AppendQuote(b, s.Name)
	b = append(b, `,"culprit":`...)
	b = strconv.AppendInt(b, int64(s.Culprit), 10)
	b = append(b, `,"start":`...)
	b = strconv.AppendInt(b, int64(s.Start), 10)
	b = append(b, `,"end":`...)
	b = strconv.AppendInt(b, int64(s.End), 10)
	b = append(b, `,"flow":`...)
	b = strconv.AppendInt(b, s.Flow, 10)
	return append(b, "}\n"...)
}
