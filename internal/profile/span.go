package profile

import (
	"io"

	"perfiso/internal/artifact"
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
// It reads the ring in place and writes through the artifact encoder,
// whose one buffer every line reuses.
func (p *Profiler) WriteSpans(w io.Writer) error {
	e := artifact.NewEncoder(w)
	older, newer := p.stored()
	e.Begin().Int("spans", int64(len(older)+len(newer))).Int("dropped", p.SpansDropped()).Line()
	for _, run := range [2][]Span{older, newer} {
		for i := range run {
			s := &run[i]
			e.Begin().Int("id", s.ID).Int("parent", s.Parent).Int("spu", int64(s.SPU)).
				Str("proc", s.Proc).Str("name", s.Name).Int("culprit", int64(s.Culprit)).
				Int("start", int64(s.Start)).Int("end", int64(s.End)).Int("flow", s.Flow).Line()
		}
	}
	return e.Flush()
}
