package disk

import (
	"fmt"
	"sort"

	"perfiso/internal/core"
	"perfiso/internal/snap"
)

// Audit verifies the disk's accounting invariants and returns the first
// violation found:
//
//   - the time-weighted queue-length and busy trackers agree with the
//     actual queue and service state,
//   - per-SPU request and sector counts sum to the whole-disk totals
//     (failed transfers count on neither side),
//   - every queued request still addresses sectors on the disk, and the
//     cylinder the schedulers read is its sector's,
//   - the head is over a real cylinder.
func (d *Disk) Audit() error {
	if got := int(d.Total.QueueLen.Value()); got != len(d.queue) {
		return fmt.Errorf("disk audit: queue-length tracker reads %d, queue holds %d", got, len(d.queue))
	}
	if tracked := d.Total.Busy.Value() != 0; tracked != d.busy {
		return fmt.Errorf("disk audit: busy tracker reads %v, busy flag is %v", tracked, d.busy)
	}
	var reqs, sectors int64
	for _, s := range d.PerSPU {
		reqs += s.Requests
		sectors += s.Sectors
	}
	if reqs != d.Total.Requests {
		return fmt.Errorf("disk audit: per-SPU requests sum to %d, total says %d", reqs, d.Total.Requests)
	}
	if sectors != d.Total.Sectors {
		return fmt.Errorf("disk audit: per-SPU sectors sum to %d, total says %d", sectors, d.Total.Sectors)
	}
	total, spc := d.params.TotalSectors(), d.params.SectorsPerCylinder()
	for _, r := range d.queue {
		if err := r.validate(total); err != nil {
			return fmt.Errorf("disk audit: queued request invalid: %w", err)
		}
		// A valid sector lies below the last cylinder's end, so its
		// cylinder is the one whose sector range holds it.
		if start := int64(r.cyl) * spc; r.Sector < start || r.Sector >= start+spc {
			return fmt.Errorf("disk audit: queued request at sector %d cached cylinder %d, want %d",
				r.Sector, r.cyl, d.params.CylinderOf(r.Sector))
		}
	}
	if d.headCyl < 0 || d.headCyl >= d.params.Cylinders {
		return fmt.Errorf("disk audit: head over cylinder %d of %d", d.headCyl, d.params.Cylinders)
	}
	return nil
}

// AuditChanged is the periodic sweep's form of Audit: it audits a disk
// that mutated since it last passed here and marks it clean when it
// passes. No law of Audit depends on the clock, so a clean disk still
// satisfies all of them; a ~1,000-deep queue in which nothing moved is
// not walked again. A disk that fails stays unmarked and is reported
// again at the next sweep.
func (d *Disk) AuditChanged() error {
	if d.clean {
		return nil
	}
	if err := d.Audit(); err != nil {
		return err
	}
	d.clean = true
	return nil
}

// Snapshot writes the disk's state for checkpoint comparison: totals,
// mechanical position, and per-SPU transfer counts.
func (d *Disk) Snapshot(enc *snap.Encoder) {
	enc.Section("disk")
	enc.Int("requests", d.Total.Requests)
	enc.Int("sectors", d.Total.Sectors)
	enc.Int("merges", d.Total.Merges)
	enc.Int("failures", d.Total.Failures)
	enc.Int("wait_n", d.Total.Wait.N())
	enc.Float("wait_sum", d.Total.Wait.Sum())
	enc.Int("service_n", d.Total.Service.N())
	enc.Float("service_sum", d.Total.Service.Sum())
	enc.Int("queue", int64(len(d.queue)))
	enc.Bool("busy", d.busy)
	enc.Int("head_cyl", int64(d.headCyl))
	enc.Int("last_end", d.lastEnd)
	ids := make([]core.SPUID, 0, len(d.PerSPU))
	for id := range d.PerSPU {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s := d.PerSPU[id]
		enc.Str(fmt.Sprintf("spu%d", id), fmt.Sprintf("requests=%d sectors=%d", s.Requests, s.Sectors))
	}
}
