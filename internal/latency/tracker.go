package latency

import (
	"perfiso/internal/core"
	"perfiso/internal/sim"
)

// DefaultWindow is the percentile-timeline window width when a caller
// enables latency tracking without choosing one: 1 s of simulated time,
// coarse enough that a window holds a statistically meaningful request
// count and fine enough to see a fault or an antagonist arrive.
const DefaultWindow = sim.Second

// SLO is a latency service-level objective: Target fraction of
// requests must complete within Threshold. The zero value means "no
// objective" — the tracker still records latencies, it just skips
// attainment accounting. Target must be in (0, 1) for burn rates to be
// meaningful; 0.99 means a 1% error budget.
type SLO struct {
	Threshold sim.Time
	Target    float64
}

// Valid reports whether the SLO names a real objective.
func (s SLO) Valid() bool { return s.Threshold > 0 && s.Target > 0 && s.Target < 1 }

// Burn returns the error-budget burn rate for good observations out of
// total: (bad fraction)/(allowed bad fraction), so 1.0 burns the budget
// exactly as fast as the objective allows. It is total — defined for
// every input: an invalid SLO or an empty window (total <= 0) burns
// nothing. Every exported burn value funnels through here so no slo or
// window line can ever carry a NaN.
func (s SLO) Burn(good, total int64) float64 {
	if !s.Valid() || total <= 0 {
		return 0
	}
	bad := float64(total-good) / float64(total)
	return bad / (1 - s.Target)
}

// AttainmentOf returns the percentage of total observations that were
// good, guarded the same way as Burn: 0 when total <= 0.
func AttainmentOf(good, total int64) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * float64(good) / float64(total)
}

// win is one sim-clock window of a tracker's timeline. Good counts
// observations at or under the SLO threshold — counted exactly at
// record time, never re-derived from buckets. Shed counts requests the
// admission controller refused in this window; they have no latency
// but are bad observations for SLO accounting.
type win struct {
	h    *Histogram
	good int64
	shed int64
}

// busy reports whether the window saw completions or sheds.
func (w *win) busy() bool { return (w.h != nil && w.h.Count() != 0) || w.shed != 0 }

// Tracker accumulates one stream's latencies: a run-total histogram, a
// windowed timeline, and exact SLO good-counts. Streams are per (name,
// SPU) — the kernel registers one per tenant SPU. A nil *Tracker is a
// valid no-op sink, so workloads record unconditionally.
type Tracker struct {
	Name string
	SPU  core.SPUID
	Obj  SLO

	width    sim.Time
	total    *Histogram
	good     int64 // exact count of observations within Obj.Threshold
	censored int64 // observations that were in-flight at measurement end
	shed     int64 // requests refused by admission control (no latency)
	wins     []win
}

// Record adds one completed request's latency d observed at sim-time
// at (normally the completing process's Finished stamp). Zero-alloc
// except when `at` opens a new window.
func (t *Tracker) Record(at sim.Time, d sim.Time) {
	if t == nil {
		return
	}
	t.record(at, int64(d))
}

// RecordCensored folds an in-flight request observed at sim-time at,
// elapsed ns after it started: a right-censored observation whose true
// latency is at least elapsed. It is recorded as that lower bound and
// counted in Censored, so horizon-bounded runs cannot make a scheme
// that strands requests look faster.
func (t *Tracker) RecordCensored(at sim.Time, elapsed sim.Time) {
	if t == nil {
		return
	}
	t.censored++
	t.record(at, int64(elapsed))
}

// RecordShed folds one request refused by admission control at
// sim-time at. A shed request never got a latency, but hiding it would
// let a load-shedding scheme look better than it is: sheds count in
// the denominator of attainment and burn, never as good.
func (t *Tracker) RecordShed(at sim.Time) {
	if t == nil {
		return
	}
	t.shed++
	t.window(at).shed++
}

// window returns the window containing sim-time at, growing the
// timeline as needed.
func (t *Tracker) window(at sim.Time) *win {
	idx := int(at / t.width)
	if idx < 0 {
		idx = 0
	}
	for len(t.wins) <= idx {
		t.wins = append(t.wins, win{})
	}
	return &t.wins[idx]
}

func (t *Tracker) record(at sim.Time, v int64) {
	t.total.Record(v)
	w := t.window(at)
	if w.h == nil {
		w.h = NewWithPrecision(WindowPrecision)
	}
	w.h.Record(v)
	if t.Obj.Valid() && v <= int64(t.Obj.Threshold) {
		t.good++
		w.good++
	}
}

// Total returns the run-total histogram.
func (t *Tracker) Total() *Histogram {
	if t == nil {
		return nil
	}
	return t.total
}

// Count returns the number of recorded observations (censored
// included).
func (t *Tracker) Count() int64 {
	if t == nil {
		return 0
	}
	return t.total.Count()
}

// Censored returns how many observations were right-censored lower
// bounds rather than completed requests.
func (t *Tracker) Censored() int64 {
	if t == nil {
		return 0
	}
	return t.censored
}

// Good returns the exact count of observations within the SLO
// threshold (0 when no SLO is set).
func (t *Tracker) Good() int64 {
	if t == nil {
		return 0
	}
	return t.good
}

// Shed returns how many requests admission control refused.
func (t *Tracker) Shed() int64 {
	if t == nil {
		return 0
	}
	return t.shed
}

// Observed returns the SLO-accounting denominator: recorded
// observations (censored included) plus shed requests.
func (t *Tracker) Observed() int64 {
	if t == nil {
		return 0
	}
	return t.total.Count() + t.shed
}

// Attainment returns the fraction of observations meeting the SLO, in
// percent (0 when no SLO or no observations). Shed requests count
// against it.
func (t *Tracker) Attainment() float64 {
	if t == nil || !t.Obj.Valid() {
		return 0
	}
	return AttainmentOf(t.good, t.Observed())
}

// BudgetBurn returns the run-total error-budget burn rate, guarded
// against empty trackers (0, never NaN).
func (t *Tracker) BudgetBurn() float64 {
	if t == nil {
		return 0
	}
	return t.Obj.Burn(t.good, t.Observed())
}

// WindowStat is one window of a tracker's percentile timeline.
type WindowStat struct {
	Index      int      // window number: [Index*width, (Index+1)*width)
	Start, End sim.Time // window bounds on the sim clock
	Count      int64
	P50        int64 // ns
	P99        int64 // ns
	P999       int64 // ns
	Good       int64
	Shed       int64 // admission-refused requests in this window
	// Attainment is the window's SLO attainment in percent; BurnRate is
	// the window's error-budget burn: (bad fraction)/(allowed bad
	// fraction), so 1.0 burns the budget exactly as fast as the SLO
	// allows. Both 0 when the tracker has no SLO, and both guarded
	// (never NaN) on empty windows.
	Attainment float64
	BurnRate   float64
}

// Width returns the timeline window width.
func (t *Tracker) Width() sim.Time {
	if t == nil {
		return 0
	}
	return t.width
}

// windowStat builds the exported stats for window i. The burn and
// attainment math funnels through SLO.Burn/AttainmentOf, so boundary
// windows — no samples at all, or sheds with no completions — yield
// defined zeros rather than NaN.
func (t *Tracker) windowStat(i int) WindowStat {
	w := &t.wins[i]
	ws := WindowStat{
		Index: i,
		Start: sim.Time(i) * t.width,
		End:   sim.Time(i+1) * t.width,
		Shed:  w.shed,
		Good:  w.good,
	}
	if w.h != nil {
		ws.Count = w.h.Count()
		if ws.Count > 0 {
			ws.P50 = w.h.Quantile(0.50)
			ws.P99 = w.h.Quantile(0.99)
			ws.P999 = w.h.Quantile(0.999)
		}
	}
	if t.Obj.Valid() {
		ws.Attainment = AttainmentOf(ws.Good, ws.Count+ws.Shed)
		ws.BurnRate = t.Obj.Burn(ws.Good, ws.Count+ws.Shed)
	}
	return ws
}

// Windows returns the non-empty windows of the timeline in time order.
// A window counts as non-empty when it saw completions or sheds.
func (t *Tracker) Windows() []WindowStat {
	if t == nil {
		return nil
	}
	var out []WindowStat
	for i := range t.wins {
		if t.wins[i].busy() {
			out = append(out, t.windowStat(i))
		}
	}
	return out
}

// WindowAt returns the stats for window idx, whether or not anything
// landed in it — an empty or out-of-range window reads as zero
// observations with zero burn. This is the feedback controller's view:
// it polls the last complete window every tick and must get a defined
// answer when a tenant had no traffic.
func (t *Tracker) WindowAt(idx int) WindowStat {
	if t == nil || idx < 0 || idx >= len(t.wins) {
		ws := WindowStat{Index: idx}
		if idx >= 0 && t != nil {
			ws.Start = sim.Time(idx) * t.width
			ws.End = sim.Time(idx+1) * t.width
		}
		return ws
	}
	return t.windowStat(idx)
}

// trackerKey identifies a tracker within a registry.
type trackerKey struct {
	name string
	spu  core.SPUID
}

// Registry owns every latency tracker of one machine, in registration
// order (what makes exports deterministic). A nil *Registry is valid:
// Tracker returns a nil no-op tracker and exports write nothing.
type Registry struct {
	width    sim.Time
	trackers []*Tracker
	idx      map[trackerKey]*Tracker
}

// NewRegistry creates a registry whose timelines use the given window
// width (DefaultWindow when <= 0).
func NewRegistry(width sim.Time) *Registry {
	if width <= 0 {
		width = DefaultWindow
	}
	return &Registry{width: width, idx: make(map[trackerKey]*Tracker)}
}

// Window returns the timeline window width.
func (r *Registry) Window() sim.Time {
	if r == nil {
		return 0
	}
	return r.width
}

// Tracker registers (or retrieves) the tracker for (name, spu).
// Re-registration returns the existing tracker and keeps its SLO, so
// two jobs on one SPU share a stream. Returns nil on a nil registry.
func (r *Registry) Tracker(name string, spu core.SPUID, slo SLO) *Tracker {
	if r == nil {
		return nil
	}
	k := trackerKey{name, spu}
	if t, ok := r.idx[k]; ok {
		return t
	}
	t := &Tracker{Name: name, SPU: spu, Obj: slo, width: r.width, total: New()}
	r.idx[k] = t
	r.trackers = append(r.trackers, t)
	return t
}

// Trackers returns the registered trackers in registration order.
func (r *Registry) Trackers() []*Tracker {
	if r == nil {
		return nil
	}
	return r.trackers
}

// Empty reports whether the registry recorded nothing.
func (r *Registry) Empty() bool {
	if r == nil {
		return true
	}
	for _, t := range r.trackers {
		if t.Count() > 0 {
			return false
		}
	}
	return true
}
