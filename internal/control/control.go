// Package control closes the SLO feedback loop the measurement layers
// (internal/latency) left open: a deterministic, sim-clock-driven
// controller that watches each tenant SPU's per-window SLO burn rate
// and retunes entitlements — plus the overload-robustness machinery it
// falls back on when retuning is not enough (admission control with
// load shedding, deadline-aware retry budgets, and a per-disk circuit
// breaker).
//
// The actuator is the SPU's dynamic share (core.SPU.Share): every
// entitlement division — CPU homes, memory frames, disk bandwidth —
// runs off the share, so one retune moves all three resources
// coherently. The controller obeys three laws the invariant auditor
// re-verifies every tick:
//
//   - conservation: Σ share = Σ weight over active user SPUs, always —
//     a retune reshapes the machine split, it never mints capacity;
//   - floors: no SPU's share drops below Floor×weight, so a tenant's
//     minimum guarantee survives any amount of neighbor pressure;
//   - bounded actuation: the total share moved per tick is capped, so
//     one bad window cannot slam the machine into a new operating
//     point (the anti-oscillation half of AIMD).
//
// Anti-oscillation comes from three mechanisms working together: a
// dead band between HighBurn and LowBurn where the controller holds, a
// calm-streak requirement (Hold ticks) before boosted share is
// released, and multiplicative decay of released share (a calm tenant
// gives back half its boost per release, not all of it).
//
// Everything here runs on the simulation clock with no unforked
// randomness, so runs are byte-reproducible at any host parallelism
// and the controller state checkpoints byte-identically (Snapshot).
package control

import (
	"fmt"
	"sort"

	"perfiso/internal/core"
	"perfiso/internal/disk"
	"perfiso/internal/latency"
	"perfiso/internal/metrics"
	"perfiso/internal/sim"
	"perfiso/internal/snap"
	"perfiso/internal/trace"
)

// Config tunes the controller. The zero value with Enabled=false is a
// valid "controller off" configuration; withDefaults fills the rest.
// The controller ticks once per latency window, evaluating each window
// right after it completes.
type Config struct {
	// Enabled turns the closed loop on. Off, the kernel neither builds
	// a controller nor touches any SPU share, and every division is
	// bit-identical to the static weight-driven math.
	Enabled bool
	// Step is the additive-increase step as a fraction of the SPU's
	// weight (AIMD's AI term). Default 0.25.
	Step float64
	// Decay is the fraction of boosted share a calm SPU keeps per
	// release tick (AIMD's MD term applied to give-backs). Default 0.5.
	Decay float64
	// MaxBoost caps an SPU's share at this multiple of its weight.
	// Default 4.
	MaxBoost float64
	// Hold is how many consecutive calm ticks an SPU must string
	// together before boosted share is released. Default 3.
	Hold int
}

// The controller's fixed operating points.
const (
	// Floor is the minimum-guarantee floor as a fraction of weight.
	Floor = 0.25
	// HighBurn and LowBurn are the hysteresis thresholds on the
	// window's error-budget burn rate: at or above HighBurn the SPU is
	// hot (asks for more share); at or below LowBurn it is calm
	// (donates, and eventually releases boost); in between it holds.
	HighBurn = 1.0
	LowBurn  = 0.25
	// MaxTickFrac bounds any SPU's per-tick share movement to this
	// fraction of its weight.
	MaxTickFrac = 0.5
	// ShedBurn is the burn rate beyond which a tenant whose share is
	// already at MaxBoost gets its admission cap tightened (load
	// shedding — the graceful-degradation fallback).
	ShedBurn = 4
	// MinInflight is the lowest admission cap shedding may impose, so
	// a degraded tenant always keeps some service.
	MinInflight = 4
	// BreakerFail and BreakerSlow are the circuit-breaker trip points:
	// a disk whose injected failure probability is at least BreakerFail
	// or whose service-time degradation factor is at least BreakerSlow
	// is "open" and degraded-mode routing avoids it.
	BreakerFail = 0.5
	BreakerSlow = 4
)

func (c Config) withDefaults() Config {
	if c.Step <= 0 {
		c.Step = 0.25
	}
	if c.Decay <= 0 || c.Decay >= 1 {
		c.Decay = 0.5
	}
	if c.MaxBoost <= 1 {
		c.MaxBoost = 4
	}
	if c.Hold <= 0 {
		c.Hold = 3
	}
	return c
}

// Action is one controller decision, kept for the controller.jsonl
// artifact and tests that assert why a run adapted.
type Action struct {
	At     sim.Time
	Action string  // boost, release, restore, shed-cap, uncap, breaker-open, breaker-heal
	Target string  // "spu3" or "disk0"
	Old    float64 // share or cap before
	New    float64 // share or cap after
	Burn   float64 // window burn that triggered it (0 for breaker events)
}

// spuState is the controller's per-SPU memory between ticks.
type spuState struct {
	calm     int     // consecutive calm ticks
	cap      int     // admission cap; 0 = uncapped
	inflight int     // admitted, not yet finished
	shed     int64   // refused arrivals
	lastBurn float64 // burn the last tick acted on (stall carry-over)
}

// Stats counts controller activity for reports.
type Stats struct {
	Ticks    int64 `json:"ticks"`
	Retunes  int64 `json:"retunes"`  // ticks that moved at least one share
	Boosts   int64 `json:"boosts"`   // per-SPU share increases
	Releases int64 `json:"releases"` // per-SPU share decreases
	Shed     int64 `json:"shed"`     // refused arrivals, all SPUs
	Trips    int64 `json:"trips"`    // breaker openings
}

// Controller is the closed loop for one kernel.
type Controller struct {
	cfg   Config
	eng   *sim.Engine
	spus  *core.Manager
	lat   *latency.Registry
	disks []*disk.Disk
	// apply re-divides CPU homes, memory frames, and disk-bandwidth
	// shares after a retune (kernel.Rebalance plus disk shares).
	apply func()

	Trace   *trace.Tracer
	Metrics *metrics.Registry

	state      map[core.SPUID]*spuState
	openMask   []bool // per-disk breaker state as of the last tick
	lastWindow int    // last evaluated latency-window index
	lastDelta  float64

	actions []Action
	Stat    Stats
}

// New builds a controller. lat must be a live latency registry (the
// controller's only sensor is the per-window SLO burn); apply is
// invoked after every retune to push the new shares into the
// scheduler, memory manager, and disks.
func New(cfg Config, eng *sim.Engine, spus *core.Manager, lat *latency.Registry, disks []*disk.Disk, apply func()) *Controller {
	if lat == nil {
		panic("control: controller without a latency registry has no sensor")
	}
	return &Controller{
		cfg:        cfg.withDefaults(),
		eng:        eng,
		spus:       spus,
		lat:        lat,
		disks:      disks,
		apply:      apply,
		state:      make(map[core.SPUID]*spuState),
		openMask:   make([]bool, len(disks)),
		lastWindow: -1,
	}
}

// Config returns the effective (defaults-filled) configuration.
func (c *Controller) Config() Config { return c.cfg }

// LastTickDelta returns the total absolute share movement of the most
// recent tick — the quantity the bounded-actuation law constrains.
func (c *Controller) LastTickDelta() float64 { return c.lastDelta }

// st returns (allocating) the per-SPU state.
func (c *Controller) st(id core.SPUID) *spuState {
	s := c.state[id]
	if s == nil {
		s = &spuState{}
		c.state[id] = s
	}
	return s
}

// Tick runs one controller period: refresh the circuit breaker from
// the disks' fault state, and — once per completed latency window —
// classify every SPU by burn rate, retune shares under the three laws,
// and adjust admission caps.
func (c *Controller) Tick() {
	c.Stat.Ticks++
	now := c.eng.Now()
	c.tickBreaker(now)
	width := c.lat.Window()
	if width <= 0 {
		return
	}
	idx := int(now/width) - 1
	if idx < 0 || idx == c.lastWindow {
		return
	}
	c.lastWindow = idx
	users := c.spus.ActiveUsers()
	burns := make([]float64, len(users))
	tracked := make([]bool, len(users))
	for i, u := range users {
		burns[i], tracked[i] = c.worstBurn(u.ID(), idx)
	}
	c.retune(now, users, burns, tracked)
	c.admission(now, users, burns, tracked)
}

// worstBurn returns the worst burn rate across the SPU's SLO trackers
// for window idx, and whether the SPU has any SLO tracker at all.
// Empty windows read as zero burn — a tenant with no traffic is calm,
// not NaN (the latency package guards the math). The one exception is
// a stalled tenant: a window with no completions at all while requests
// are in flight means the queue is wedged, not idle — the deepest
// overload produces the least evidence. That window inherits the last
// acted-on burn (at least HighBurn), so the controller keeps pushing
// instead of reading silence as recovery.
func (c *Controller) worstBurn(id core.SPUID, idx int) (burn float64, tracked bool) {
	observed := false
	for _, t := range c.lat.Trackers() {
		if t.SPU != id || !t.Obj.Valid() {
			continue
		}
		tracked = true
		ws := t.WindowAt(idx)
		if ws.Count+ws.Shed > 0 {
			observed = true
		}
		if ws.BurnRate > burn {
			burn = ws.BurnRate
		}
	}
	st := c.st(id)
	if tracked && !observed && st.inflight > 0 {
		burn = maxf(st.lastBurn, HighBurn)
	}
	st.lastBurn = burn
	return burn, tracked
}

// retune is the AIMD core. Classification: hot SPUs (burn >= HighBurn)
// request an additive boost sized by how hard they burn; calm SPUs
// (burn <= LowBurn) offer spare share above their floor, plus — after
// Hold consecutive calm ticks — a multiplicative release of share held
// above weight; everyone else holds. Requests clear against the single
// offer pool in two priority tiers: hot boosts first, then restores
// (calm SPUs climbing back toward weight) from whatever offer capacity
// the hot tier left. A calm SPU below its weight both requests restore
// and offers its above-floor headroom — a burning tenant outranks a
// calm one's recovery, which is what lets the largest donor keep
// donating even when it sits fractionally below its own weight. Every
// tier moves min(offered, requested), scaled proportionally, so Σ
// share is conserved exactly and floors and the per-tick movement
// bound hold by construction.
func (c *Controller) retune(now sim.Time, users []*core.SPU, burns []float64, tracked []bool) {
	n := len(users)
	if n == 0 {
		c.lastDelta = 0
		return
	}
	boost := make([]float64, n)   // tier-1 requests (hot SPUs)
	restore := make([]float64, n) // tier-2 requests (deficit SPUs climbing back)
	offer := make([]float64, n)   // offers (calm SPUs above floor)
	var pos1, pos2, neg float64
	for i, u := range users {
		w := u.Weight()
		share := u.Share()
		st := c.st(u.ID())
		maxMove := MaxTickFrac * w
		hot := tracked[i] && burns[i] >= HighBurn
		calm := burns[i] <= LowBurn // untracked SPUs always read calm
		switch {
		case hot:
			st.calm = 0
			// The additive step scales with how hard the budget is
			// burning — a tenant 10x over its budget cannot wait for
			// ten polite increments — but never past the per-tick
			// movement bound, so the actuation law still holds.
			step := c.cfg.Step * w * maxf(1, burns[i]/HighBurn)
			boost[i] = minf(step, c.cfg.MaxBoost*w-share, maxMove)
			if boost[i] < 0 {
				boost[i] = 0
			}
			pos1 += boost[i]
		case calm:
			st.calm++
			if share < w {
				restore[i] = minf(w-share, c.cfg.Step*w, maxMove)
				pos2 += restore[i]
			}
			negCap := minf(share-Floor*w, maxMove)
			if negCap <= 0 || st.calm < 2 {
				// One calm window right after running hot is noise, not
				// recovery; donating on it would see-saw against the
				// next boost. Two in a row earns donor status.
				break
			}
			dstep := c.cfg.Step * w
			if tracked[i] {
				// Fast attack, slow decay: an SPU with an SLO of its own
				// sheds share at a Decay-damped rate, so two tenants
				// elevated through the same fault window don't limit-
				// cycle by raiding each other. Untracked SPUs have no
				// tail to protect and donate the full step.
				dstep *= 1 - c.cfg.Decay
			}
			offer[i] = minf(dstep, negCap)
			if st.calm >= c.cfg.Hold && share > w {
				rel := minf((share-w)*(1-c.cfg.Decay), negCap-offer[i])
				if rel > 0 {
					offer[i] += rel
				}
			}
			neg += offer[i]
		default:
			st.calm = 0
		}
	}
	// Hot boosts draw on the offer pool first; restores get the rest.
	m1 := minf(pos1, neg)
	m2 := minf(pos2, neg-m1)
	boostScale := scale(m1, pos1)
	restScale := scale(m2, pos2)
	offScale := scale(m1+m2, neg)

	var moved float64
	var changed bool
	for i, u := range users {
		delta := boost[i]*boostScale + restore[i]*restScale - offer[i]*offScale
		if delta == 0 {
			continue
		}
		old := u.Share()
		u.SetShare(old + delta)
		moved += absf(delta)
		changed = true
		action := "release"
		if delta > 0 {
			if boost[i] > 0 {
				action = "boost"
			} else {
				action = "restore"
			}
			c.Stat.Boosts++
			c.Metrics.Counter(metrics.KeyControlBoosts, u.ID()).Inc()
		} else {
			c.Stat.Releases++
			c.Metrics.Counter(metrics.KeyControlReleases, u.ID()).Inc()
		}
		c.record(Action{
			At: now, Action: action, Target: fmt.Sprintf("spu%d", u.ID()),
			Old: old, New: u.Share(), Burn: burns[i],
		})
		c.Trace.Emitf(trace.Control, fmt.Sprintf("spu%d", u.ID()), action,
			"share %.3f -> %.3f (burn %.2f)", old, u.Share(), burns[i])
	}
	c.lastDelta = moved
	if !changed {
		return
	}
	// Exact conservation repair: float scaling leaves ~1e-16 residue
	// per tick, which would accumulate over long runs. Charge it to
	// the SPU with the most headroom above its floor (lowest ID wins
	// ties) so Σ share = Σ weight stays exact.
	var sum, wsum float64
	for _, u := range users {
		sum += u.Share()
		wsum += u.Weight()
	}
	if diff := sum - wsum; diff != 0 {
		best := -1
		var bestRoom float64
		for i, u := range users {
			if room := u.Share() - Floor*u.Weight(); best == -1 || room > bestRoom+1e-12 {
				best, bestRoom = i, room
			}
		}
		if best >= 0 && users[best].Share()-diff > 0 {
			users[best].SetShare(users[best].Share() - diff)
		}
	}
	c.Stat.Retunes++
	c.Metrics.Counter(metrics.KeyControlRetunes, metrics.NoSPU).Inc()
	if c.apply != nil {
		c.apply()
	}
}

// admission adjusts per-SPU caps: a tenant burning past ShedBurn with
// its share already at the MaxBoost ceiling has nothing left to gain
// from retuning, so its admission cap tightens (shedding keeps the
// served requests fast instead of letting the queue take everyone
// down). Calm tenants get their cap relaxed and eventually removed.
func (c *Controller) admission(now sim.Time, users []*core.SPU, burns []float64, tracked []bool) {
	for i, u := range users {
		if !tracked[i] {
			continue
		}
		st := c.st(u.ID())
		w := u.Weight()
		atCeiling := u.Share() >= c.cfg.MaxBoost*w-1e-9
		switch {
		case burns[i] >= ShedBurn && atCeiling:
			old := st.cap
			if old == 0 {
				st.cap = maxi(MinInflight, st.inflight*3/4)
			} else {
				st.cap = maxi(MinInflight, old*3/4)
			}
			if st.cap != old {
				c.record(Action{
					At: now, Action: "shed-cap", Target: fmt.Sprintf("spu%d", u.ID()),
					Old: float64(old), New: float64(st.cap), Burn: burns[i],
				})
				c.Trace.Emitf(trace.Control, fmt.Sprintf("spu%d", u.ID()), "shed-cap",
					"admission cap %d -> %d (burn %.2f)", old, st.cap, burns[i])
			}
		case burns[i] <= LowBurn && st.cap > 0:
			old := st.cap
			st.cap *= 2
			action := "uncap"
			if st.cap > st.inflight*4 || st.cap > 1<<10 {
				st.cap = 0
			} else {
				action = "relax-cap"
			}
			c.record(Action{
				At: now, Action: action, Target: fmt.Sprintf("spu%d", u.ID()),
				Old: float64(old), New: float64(st.cap), Burn: burns[i],
			})
			c.Trace.Emitf(trace.Control, fmt.Sprintf("spu%d", u.ID()), action,
				"admission cap %d -> %d", old, st.cap)
		}
	}
}

// Admit decides one arrival: true admits (and holds an in-flight
// slot until Done), false sheds. Shed accounting is the caller's job —
// the workload records the shed into its latency tracker so the
// refusal shows up as a bad observation, never a silent drop.
func (c *Controller) Admit(id core.SPUID) bool {
	st := c.st(id)
	if st.cap > 0 && st.inflight >= st.cap {
		st.shed++
		c.Stat.Shed++
		c.Metrics.Counter(metrics.KeyControlShed, id).Inc()
		return false
	}
	st.inflight++
	return true
}

// Done releases an admitted request's in-flight slot.
func (c *Controller) Done(id core.SPUID) {
	st := c.st(id)
	st.inflight--
	if st.inflight < 0 {
		panic(fmt.Sprintf("control: SPU %d in-flight went negative", id))
	}
}

// Cap returns the SPU's admission cap (0 = uncapped).
func (c *Controller) Cap(id core.SPUID) int { return c.st(id).cap }

// tickBreaker refreshes the per-disk circuit breaker from the disks'
// fault state (set by internal/fault's injector) and records trips and
// heals. Breaker state is derived, not stored — it cannot drift from
// the machine, and it heals the instant the injector reverts.
func (c *Controller) tickBreaker(now sim.Time) {
	for i, d := range c.disks {
		open := d.FailProb() >= BreakerFail || d.Slow() >= BreakerSlow
		if open == c.openMask[i] {
			continue
		}
		c.openMask[i] = open
		if open {
			c.Stat.Trips++
			c.Metrics.Counter(metrics.KeyControlBreaker, metrics.NoSPU).Inc()
			c.record(Action{At: now, Action: "breaker-open", Target: fmt.Sprintf("disk%d", i)})
			c.Trace.Emitf(trace.Control, fmt.Sprintf("disk%d", i), "breaker-open",
				"fail-p %.2f slow x%.1f", d.FailProb(), d.Slow())
		} else {
			c.record(Action{At: now, Action: "breaker-heal", Target: fmt.Sprintf("disk%d", i)})
			c.Trace.Emitf(trace.Control, fmt.Sprintf("disk%d", i), "breaker-heal", "")
		}
	}
}

// BreakerOpen reports whether disk i is currently tripped. It reads
// the live fault state, so callers on the request path see a trip the
// moment the injector degrades the disk, not a tick later.
func (c *Controller) BreakerOpen(i int) bool {
	if c == nil || i < 0 || i >= len(c.disks) {
		return false
	}
	d := c.disks[i]
	return d.FailProb() >= BreakerFail || d.Slow() >= BreakerSlow
}

// Fallback returns the nearest healthy disk to route around tripped
// disk i (scanning round-robin from i+1, deterministic), or -1 when
// every disk is tripped and there is nowhere to fail over to.
func (c *Controller) Fallback(i int) int {
	n := len(c.disks)
	for j := 1; j < n; j++ {
		k := (i + j) % n
		if !c.BreakerOpen(k) {
			return k
		}
	}
	return -1
}

func (c *Controller) record(a Action) {
	c.actions = append(c.actions, a)
}

// Snapshot writes the controller's state for checkpoint comparison:
// the tick counters, every SPU's dynamic share and admission state,
// and the breaker mask. Two runs paused at the same instant produce
// identical bytes, which is what makes a mid-retune checkpoint
// replayable.
func (c *Controller) Snapshot(enc *snap.Encoder) {
	enc.Section("control")
	enc.Int("ticks", c.Stat.Ticks)
	enc.Int("retunes", c.Stat.Retunes)
	enc.Int("boosts", c.Stat.Boosts)
	enc.Int("releases", c.Stat.Releases)
	enc.Int("shed", c.Stat.Shed)
	enc.Int("trips", c.Stat.Trips)
	enc.Int("last_window", int64(c.lastWindow))
	enc.Float("last_delta", c.lastDelta)
	ids := make([]int, 0, len(c.state))
	for id := range c.state {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		st := c.state[core.SPUID(id)]
		pre := fmt.Sprintf("spu%d_", id)
		enc.Float(pre+"share", c.spus.Get(core.SPUID(id)).Share())
		enc.Int(pre+"calm", int64(st.calm))
		enc.Int(pre+"cap", int64(st.cap))
		enc.Int(pre+"inflight", int64(st.inflight))
		enc.Int(pre+"shed", st.shed)
		enc.Float(pre+"burn", st.lastBurn)
	}
	for i, open := range c.openMask {
		enc.Bool(fmt.Sprintf("breaker%d", i), open)
	}
	enc.Int("actions", int64(len(c.actions)))
}

func minf(vs ...float64) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// scale returns moved/offered, the proportional fill of an offer pool.
func scale(moved, offered float64) float64 {
	if offered <= 0 {
		return 0
	}
	return moved / offered
}
