package disk

import "perfiso/internal/core"

// Scheduler selects the next request to service from a disk's queue.
// The three implementations correspond to the policies of §4.5.
type Scheduler interface {
	// Name returns the policy name as used in the paper's tables.
	Name() string
	// pick returns the index into d.queue of the next request to service.
	// It is only called with a non-empty queue.
	pick(d *Disk) int
}

// cscan accumulates the C-SCAN choice over candidates offered in queue
// order: the lowest starting cylinder at or ahead of the current head
// position in the upward sweep, wrapping to the lowest cylinder when the
// sweep passes the end (§3.3). Ties break by sector, then FIFO — a later
// candidate must be strictly better to win.
type cscan struct {
	queue       []*Request
	head        int
	ahead, wrap int // best queue index at/after the head and behind it; -1 when none
}

func newCSCAN(d *Disk) cscan { return cscan{queue: d.queue, head: d.headCyl, ahead: -1, wrap: -1} }

func (c *cscan) offer(i int) {
	r := c.queue[i]
	best := &c.wrap
	if r.cyl >= c.head {
		best = &c.ahead
	}
	if *best < 0 {
		*best = i
		return
	}
	b := c.queue[*best]
	if r.cyl < b.cyl || (r.cyl == b.cyl && r.Sector < b.Sector) {
		*best = i
	}
}

// pick returns the chosen queue index, or -1 when nothing was offered.
func (c *cscan) pick() int {
	if c.ahead >= 0 {
		return c.ahead
	}
	return c.wrap
}

// hasUser reports whether any queued request belongs to a user (or the
// kernel) SPU. Shared-SPU requests have the lowest priority (§3.3);
// kernel requests are treated like user requests (the kernel SPU is
// never restricted).
func hasUser(d *Disk) bool {
	for _, r := range d.queue {
		if r.SPU != core.SharedID {
			return true
		}
	}
	return false
}

// Pos is IRIX 5.3's standard scheduling: head position only, via C-SCAN.
// The requesting SPU plays no part, so a long contiguous stream can lock
// out other SPUs entirely.
type Pos struct{}

// NewPos returns the position-only C-SCAN scheduler.
func NewPos() *Pos { return &Pos{} }

// Name implements Scheduler.
func (*Pos) Name() string { return "Pos" }

func (*Pos) pick(d *Disk) int {
	c := newCSCAN(d)
	for i := range d.queue {
		c.offer(i)
	}
	return c.pick()
}

// Iso is the blind isolation policy: it ignores head position and serves
// the SPU with the lowest bandwidth usage relative to its share,
// round-robin style, FIFO within an SPU. It gives the best fairness and
// the worst seek behaviour.
type Iso struct{}

// NewIso returns the blind bandwidth-fairness scheduler.
func NewIso() *Iso { return &Iso{} }

// Name implements Scheduler.
func (*Iso) Name() string { return "Iso" }

func (*Iso) pick(d *Disk) int {
	// Candidates are the user requests, or the shared ones when no user
	// request is queued. Lowest relative usage goes first; FIFO within
	// the winning SPU.
	user := hasUser(d)
	best := -1
	var bestRel float64
	for i, r := range d.queue {
		if (r.SPU != core.SharedID) != user {
			continue
		}
		rel := d.usage.Relative(d.eng.Now(), r.SPU)
		if best == -1 || rel < bestRel-1e-12 {
			best, bestRel = i, rel
		}
	}
	// best is the earliest-queued request of the least-served SPU because
	// queue order is FIFO and we only replace on strictly smaller usage.
	return best
}

// PIso is the paper's performance-isolation policy: requests are serviced
// in C-SCAN order as long as every SPU with queued requests passes the
// fairness criterion; an SPU whose relative usage exceeds the mean by
// more than Threshold is denied service until it passes again (§3.3).
//
// Threshold trades isolation against throughput: 0 degenerates to
// round-robin-like fairness, a huge value to pure position scheduling.
type PIso struct {
	// Threshold is the BW difference threshold in sectors (relative to a
	// unit share).
	Threshold float64
}

// DefaultBWThreshold is the BW difference threshold used when none is
// specified: 256 sectors (128 KB) of decayed usage above the mean.
const DefaultBWThreshold = 256

// NewPIso returns the fairness+position scheduler with the given
// BW-difference threshold (DefaultBWThreshold if <= 0).
func NewPIso(threshold float64) *PIso {
	if threshold <= 0 {
		threshold = DefaultBWThreshold
	}
	return &PIso{Threshold: threshold}
}

// Name implements Scheduler.
func (*PIso) Name() string { return "PIso" }

func (p *PIso) pick(d *Disk) int {
	now := d.eng.Now()
	// Fairness criterion over the SPUs that currently have user requests
	// queued. Each one's relative usage is read once (reading decays its
	// meter in place) and summed in order of first appearance in the
	// queue, so the mean is the same float every time. At least one
	// active SPU is at or below the mean, so the passing set is never
	// empty for Threshold >= 0.
	active := d.active[:0]
	var sum float64
	for _, r := range d.queue {
		if r.SPU == core.SharedID || activeIndex(active, r.SPU) >= 0 {
			continue
		}
		rel := d.usage.Relative(now, r.SPU)
		active = append(active, spuUsage{r.SPU, rel})
		sum += rel
	}
	d.active = active
	c := newCSCAN(d)
	if len(active) == 0 { // shared requests only
		for i := range d.queue {
			c.offer(i)
		}
		return c.pick()
	}
	limit := sum/float64(len(active)) + p.Threshold
	for i, r := range d.queue {
		if r.SPU != core.SharedID && active[activeIndex(active, r.SPU)].rel <= limit {
			c.offer(i)
		}
	}
	if best := c.pick(); best >= 0 {
		return best
	}
	// Defensive; cannot happen with Threshold >= 0.
	for i, r := range d.queue {
		if r.SPU != core.SharedID {
			c.offer(i)
		}
	}
	return c.pick()
}

// spuUsage is one active SPU's relative bandwidth usage during a pick.
type spuUsage struct {
	id  core.SPUID
	rel float64
}

// activeIndex returns the position of id in active, or -1.
func activeIndex(active []spuUsage, id core.SPUID) int {
	for i := range active {
		if active[i].id == id {
			return i
		}
	}
	return -1
}
