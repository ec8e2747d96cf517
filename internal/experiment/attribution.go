package experiment

import (
	"bytes"
	"io"

	"perfiso/internal/artifact"
	"perfiso/internal/core"
	"perfiso/internal/kernel"
	"perfiso/internal/profile"
)

// AttributionRow is one process's critical-path latency breakdown from
// the simulated-time profiler: its response time split across the state
// buckets. All fields are integer simulated nanoseconds and the buckets
// sum to Response exactly (the profiler's conservation identity, which
// the invariant auditor enforces during the run).
type AttributionRow struct {
	Proc        string `json:"proc"`
	SPU         int    `json:"spu"`
	Response    int64  `json:"response_ns"`
	Run         int64  `json:"run_ns"`
	Runnable    int64  `json:"runnable_ns"`
	MemWait     int64  `json:"memwait_ns"`
	DiskWait    int64  `json:"diskwait_ns"`
	DiskQueue   int64  `json:"diskqueue_ns"`
	DiskService int64  `json:"diskservice_ns"`
	Backoff     int64  `json:"backoff_ns"`
	Swap        int64  `json:"swap_ns"`
	Sleep       int64  `json:"sleep_ns"`
	Sync        int64  `json:"sync_ns"`
	LockWait    int64  `json:"lockwait_ns"`
	Ready       int64  `json:"ready_ns"`
}

// Sum returns the row's bucket total, which equals Response when the
// profiler's conservation identity held.
func (r AttributionRow) Sum() int64 {
	return r.Run + r.Runnable + r.MemWait + r.DiskWait + r.DiskQueue +
		r.DiskService + r.Backoff + r.Swap + r.Sleep + r.Sync +
		r.LockWait + r.Ready
}

// TheftRow is one cell of the interference matrix: simulated time the
// culprit SPU's activity on a resource cost the victim SPU.
type TheftRow struct {
	Victim   string `json:"victim"`
	Culprit  string `json:"culprit"`
	Resource string `json:"resource"`
	Stolen   int64  `json:"stolen_ns"`
}

// AttributionSummary is one configuration's profiler output: per-process
// latency breakdowns plus the cross-SPU interference matrix. Everything
// is simulation-derived integer nanoseconds, so the same run always
// summarizes to the same bytes.
type AttributionSummary struct {
	// Config names the run within its experiment, e.g. "PIso" or
	// "SMP/unbalanced".
	Config string `json:"config"`
	// Tasks counts the finished processes the profiler accounted.
	Tasks int `json:"tasks"`
	// ConservationViolations counts tasks whose buckets failed to sum
	// to their response time; always 0 unless the profiler is broken.
	ConservationViolations int64 `json:"conservation_violations"`
	// Procs is one row per finished process, in finish order.
	Procs []AttributionRow `json:"procs"`
	// Theft is the interference matrix, sorted by victim, culprit,
	// resource. Under PIso an isolated SPU's victim rows are ~0.
	Theft []TheftRow `json:"theft,omitempty"`

	// spans renders the run's span JSONL for the attribution.jsonl
	// artifact on demand — serializing thousands of spans costs more than
	// some whole runs, so it only happens when the artifact is actually
	// written. Unexported so bench JSON stays a summary.
	spans func() string
}

// summarizeAttribution distills a finished kernel's profiler. ok is
// false when the kernel ran without profiling.
func summarizeAttribution(k *kernel.Kernel, config string) (AttributionSummary, bool) {
	p := k.Profile()
	if p == nil {
		return AttributionSummary{}, false
	}
	names := make(map[int]string)
	for _, u := range k.SPUs().All() {
		names[int(u.ID())] = u.Name()
	}
	s := AttributionSummary{Config: config, ConservationViolations: p.Violations()}
	for _, t := range p.Tasks() {
		b := func(st profile.State) int64 { return int64(t.Buckets[st]) }
		s.Procs = append(s.Procs, AttributionRow{
			Proc:        t.Proc,
			SPU:         int(t.SPU),
			Response:    int64(t.Finished - t.Started),
			Run:         b(profile.StateRun),
			Runnable:    b(profile.StateRunnable),
			MemWait:     b(profile.StateMemWait),
			DiskWait:    b(profile.StateDiskWait),
			DiskQueue:   b(profile.StateDiskQueue),
			DiskService: b(profile.StateDiskService),
			Backoff:     b(profile.StateBackoff),
			Swap:        b(profile.StateSwap),
			Sleep:       b(profile.StateSleep),
			Sync:        b(profile.StateSync),
			LockWait:    b(profile.StateLockWait),
			Ready:       b(profile.StateReady),
		})
	}
	s.Tasks = len(s.Procs)
	for _, t := range p.Interference() {
		s.Theft = append(s.Theft, TheftRow{
			Victim:   spuDisplay(names, t.Victim),
			Culprit:  spuDisplay(names, t.Culprit),
			Resource: t.Resource.String(),
			Stolen:   int64(t.Stolen),
		})
	}
	s.spans = func() string {
		var buf bytes.Buffer
		if err := p.WriteSpans(&buf); err != nil {
			return ""
		}
		return buf.String()
	}
	return s, true
}

// spuDisplay names an SPU for the theft rows: its registered name when
// it has one, profile.SPUName otherwise.
func spuDisplay(names map[int]string, id core.SPUID) string {
	if n, ok := names[int(id)]; ok {
		return n
	}
	return profile.SPUName(id)
}

// ProfileJSONL writes the per-experiment attribution artifact: for every
// profiled configuration, one "experiment" header line, one "proc" line
// per finished process, one "theft" line per interference-matrix cell,
// and then the run's span JSONL (the lines of pisosim's spans.jsonl).
// Results appear in registry order and every value is integer simulated
// time, so the artifact is byte-identical at any -parallel level.
func ProfileJSONL(results []Result, w io.Writer) error {
	e := artifact.NewEncoder(w)
	for _, r := range results {
		for _, as := range r.Output.Attribution {
			experimentLine(e, r, as.Config).Int("tasks", int64(as.Tasks)).
				Int("conservation_violations", as.ConservationViolations).Line()
			for _, p := range as.Procs {
				e.Begin().Str("type", "proc").Str("proc", p.Proc).Int("spu", int64(p.SPU)).
					Int("response_ns", p.Response).Int("run_ns", p.Run).Int("runnable_ns", p.Runnable).
					Int("memwait_ns", p.MemWait).Int("diskwait_ns", p.DiskWait).
					Int("diskqueue_ns", p.DiskQueue).Int("diskservice_ns", p.DiskService).
					Int("backoff_ns", p.Backoff).Int("swap_ns", p.Swap).Int("sleep_ns", p.Sleep).
					Int("sync_ns", p.Sync).Int("lockwait_ns", p.LockWait).Int("ready_ns", p.Ready).Line()
			}
			for _, t := range as.Theft {
				e.Begin().Str("type", "theft").Str("victim", t.Victim).Str("culprit", t.Culprit).
					Str("resource", t.Resource).Int("stolen_ns", t.Stolen).Line()
			}
			if as.spans != nil {
				if err := writeBlock(e, w, as.spans()); err != nil {
					return err
				}
			}
		}
	}
	return e.Flush()
}
