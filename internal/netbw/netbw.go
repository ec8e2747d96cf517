// Package netbw extends performance isolation to network bandwidth.
// The paper does not implement this resource but states that "the
// implementation would be similar to that of disk bandwidth, without
// the complication of head position" (§3, §5). A Link therefore reuses
// the decayed per-SPU usage accounting and the fairness criterion of
// the disk scheduler, minus the position term:
//
//   - FCFS ignores SPUs entirely (the unconstrained baseline — a long
//     burst from one SPU delays everyone, like a core dump on a disk).
//   - Fair serves the SPU with the lowest bandwidth usage relative to
//     its share; an SPU whose usage exceeds the mean by the threshold
//     is denied until it passes again. With only a fixed per-packet
//     cost and no seek, the blind and hybrid policies coincide.
package netbw

import (
	"fmt"

	"perfiso/internal/bwmeter"
	"perfiso/internal/core"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
)

// Packet is one transmission request.
type Packet struct {
	Bytes int
	SPU   core.SPUID
	Done  func(*Packet)

	Submitted sim.Time
	Started   sim.Time
	Finished  sim.Time
}

// Wait returns the queueing delay.
func (p *Packet) Wait() sim.Time { return p.Started - p.Submitted }

// Latency returns submit-to-finish time.
func (p *Packet) Latency() sim.Time { return p.Finished - p.Submitted }

// Policy selects the link scheduling discipline.
type Policy int

const (
	// FCFS transmits packets in arrival order.
	FCFS Policy = iota
	// Fair applies the §3.3 bandwidth-fairness criterion per SPU.
	Fair
)

// String names the policy.
func (p Policy) String() string {
	if p == FCFS {
		return "FCFS"
	}
	return "Fair"
}

// SPUStats aggregates per-SPU link statistics.
type SPUStats struct {
	Packets int64
	Bytes   int64
	Wait    stats.Sample // seconds
}

// Link is one simulated network interface.
type Link struct {
	eng *sim.Engine

	// BytesPerSec is the line rate.
	BytesPerSec float64
	// PerPacket is the fixed per-packet overhead (framing, interrupt).
	PerPacket sim.Time
	// Policy is the scheduling discipline.
	Policy Policy
	// Threshold is the Fair policy's BW difference threshold, in bytes
	// relative to a unit share.
	Threshold float64

	queue []*Packet
	busy  bool
	usage *bwmeter.Table

	PerSPU map[core.SPUID]*SPUStats
	Total  SPUStats
}

// NewLink creates a link with the given line rate and policy. halfLife
// configures the usage decay (0 means the paper's 500 ms).
func NewLink(eng *sim.Engine, bytesPerSec float64, policy Policy, threshold float64, halfLife sim.Time) *Link {
	if bytesPerSec <= 0 {
		panic(fmt.Sprintf("netbw: line rate %g", bytesPerSec))
	}
	if threshold <= 0 {
		threshold = 64 * 1024
	}
	return &Link{
		eng:         eng,
		BytesPerSec: bytesPerSec,
		PerPacket:   20 * sim.Microsecond,
		Policy:      policy,
		Threshold:   threshold,
		usage:       bwmeter.NewTable(halfLife),
		PerSPU:      make(map[core.SPUID]*SPUStats),
	}
}

// SetShare sets an SPU's bandwidth share weight on this link.
func (l *Link) SetShare(id core.SPUID, w float64) { l.usage.SetShare(id, w) }

// QueueLen returns the number of packets waiting.
func (l *Link) QueueLen() int { return len(l.queue) }

// Send enqueues a packet for transmission.
func (l *Link) Send(p *Packet) {
	if p.Bytes <= 0 {
		panic("netbw: empty packet")
	}
	p.Submitted = l.eng.Now()
	l.queue = append(l.queue, p)
	if !l.busy {
		l.startNext()
	}
}

// pick selects the next packet index per policy.
func (l *Link) pick() int {
	if l.Policy == FCFS || len(l.queue) == 1 {
		return 0
	}
	now := l.eng.Now()
	// Fairness criterion over the SPUs with queued packets (§3.3 minus
	// head position): FIFO among the passing SPUs' packets.
	var active []core.SPUID
	seen := make(map[core.SPUID]bool)
	for _, p := range l.queue {
		if !seen[p.SPU] {
			seen[p.SPU] = true
			active = append(active, p.SPU)
		}
	}
	mean := l.usage.MeanRelative(now, active)
	for i, p := range l.queue {
		if l.usage.Relative(now, p.SPU) <= mean+l.Threshold {
			return i
		}
	}
	return 0 // defensive; at least one SPU passes for Threshold >= 0
}

func (l *Link) startNext() {
	if len(l.queue) == 0 {
		l.busy = false
		return
	}
	i := l.pick()
	p := l.queue[i]
	l.queue = append(l.queue[:i], l.queue[i+1:]...)
	l.busy = true
	p.Started = l.eng.Now()
	d := l.PerPacket + sim.Time(float64(p.Bytes)/l.BytesPerSec*float64(sim.Second))
	l.eng.After(d, "netbw.tx", func() { l.complete(p) })
}

func (l *Link) complete(p *Packet) {
	p.Finished = l.eng.Now()
	l.usage.Charge(p.Finished, p.SPU, p.Bytes)
	s, ok := l.PerSPU[p.SPU]
	if !ok {
		s = &SPUStats{}
		l.PerSPU[p.SPU] = s
	}
	for _, st := range []*SPUStats{s, &l.Total} {
		st.Packets++
		st.Bytes += int64(p.Bytes)
		st.Wait.AddTime(p.Wait())
	}
	done := p.Done
	l.startNext()
	if done != nil {
		done(p)
	}
}
