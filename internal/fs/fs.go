package fs

import (
	"fmt"
	"sort"

	"perfiso/internal/control"
	"perfiso/internal/core"
	"perfiso/internal/disk"
	"perfiso/internal/lock"
	"perfiso/internal/mem"
	"perfiso/internal/metrics"
	"perfiso/internal/sim"
)

const (
	// ClusterPages is the read cluster size: 8 pages = 32 KB per disk
	// request, which puts the big-copy workload near the paper's "1050
	// requests" for 20 MB copied.
	ClusterPages = 8
	// DefaultReadAheadPages is how far sequential read-ahead prefetches
	// beyond the requested range.
	DefaultReadAheadPages = 16
	// DefaultFlushClusterPages is the delayed-write cluster size: 16
	// pages = 64 KB per flush request.
	DefaultFlushClusterPages = 16
	// DefaultLookupHold is the simulated hold time of the inode lock for
	// one pathname lookup.
	DefaultLookupHold = 30 * sim.Microsecond
	// DefaultPageInsertStripes is the page-insert-lock striping of the
	// fixed kernel; 1 reproduces the original coarse lock (§3.4).
	DefaultPageInsertStripes = 64
	// DefaultPageInsertHold is the time one cache-page insertion holds
	// its page-insert-lock stripe.
	DefaultPageInsertHold = 2 * sim.Microsecond
	// FlushPeriod is how often the kernel runs the delayed-write flusher
	// (FlushTick), IRIX's bdflush cadence.
	FlushPeriod = 500 * sim.Millisecond
)

// Stats counts file-system activity.
type Stats struct {
	Hits       int64
	Misses     int64
	ReadReqs   int64 // disk read requests issued
	WriteReqs  int64 // disk write requests issued (flush + meta)
	MetaWrites int64
	Flushes    int64 // flush batches
	Lookups    int64
	Retries    int64 // failed disk requests resubmitted with backoff
	Clamped    int64 // retries throttled to the slow lane (budget spent)
}

// FileSystem is the buffer-cache and file layer over the disks.
type FileSystem struct {
	eng *sim.Engine
	mm  *mem.Manager

	cache map[cacheKey]*CachePage
	// dirty holds every dirty cache page, each knowing its own position
	// (CachePage.dirtyPos), so Flush visits only dirty pages and a page
	// leaves the set in O(1).
	dirty []*CachePage
	// dirtied counts files as they get their first dirty page; see
	// File.dirtyOrd.
	dirtied int64

	// RootInode is the §3.4 inode-lock semaphore guarding pathname
	// lookups; its mode (mutex vs readers-writer) is the abl-sem knob.
	// With inode sharding it is shard 0 — the shard every SPU maps to in
	// the single-tree layout.
	RootInode *lock.Lock

	// inodes holds the inode-lock shards; Lookup maps an SPU's
	// pathname traffic to shard spu mod len. One shard is the single
	// shared root inode of §3.4; a shard per SPU models private
	// directory trees, under which lock interference vanishes.
	inodes []*lock.Lock

	// pageInsert is the §3.4 page-insert-lock: it protects the mapping
	// from (file, offset) to physical pages. The original IRIX 5.3 had
	// one coarse lock; the paper "reduced the granularity", which we
	// model as lock striping. PageInsertHold is the per-insertion hold.
	pageInsert     *lock.Sharded
	PageInsertHold sim.Time

	ReadAheadPages    int64
	FlushClusterPages int64
	LookupHold        sim.Time
	// DirtyHighWater triggers an immediate flush when the number of
	// dirty pages exceeds it ("the buffer cache fills up causing writes
	// to the disk", §4.5). Zero means a quarter of physical memory.
	DirtyHighWater int

	Stat Stats
	// Metrics, when non-nil, receives per-SPU retry and backoff-time
	// counters for degraded-disk resubmissions. Nil costs nothing.
	Metrics *metrics.Registry
}

// New creates a file system drawing cache frames from mm, with its
// locks made by locks: the root inode in inodeMode, then inode shards
// fs.inode.1 to fs.inode.n-1 for n inodeShards (one shared root inode
// when n <= 1; at n at or above the SPU count every SPU's lookups run
// under a private tree), then the page-insert stripes, pageInsertStripes
// of them (DefaultPageInsertStripes when 0 or less; 1 is the original
// coarse IRIX lock, §3.4).
func New(eng *sim.Engine, mm *mem.Manager, locks *lock.Table, inodeMode SemMode, inodeShards, pageInsertStripes int) *FileSystem {
	f := &FileSystem{
		eng:               eng,
		mm:                mm,
		cache:             make(map[cacheKey]*CachePage),
		RootInode:         locks.NewLock("fs.inode", inodeMode),
		ReadAheadPages:    DefaultReadAheadPages,
		FlushClusterPages: DefaultFlushClusterPages,
		LookupHold:        DefaultLookupHold,
		PageInsertHold:    DefaultPageInsertHold,
		DirtyHighWater:    mm.TotalPages() / 4,
	}
	f.inodes = []*lock.Lock{f.RootInode}
	for i := 1; i < inodeShards; i++ {
		f.inodes = append(f.inodes, locks.NewLock(fmt.Sprintf("fs.inode.%d", i), inodeMode))
	}
	if pageInsertStripes <= 0 {
		pageInsertStripes = DefaultPageInsertStripes
	}
	f.pageInsert = locks.NewSharded("fs.pageinsert", lock.Mutex, pageInsertStripes)
	return f
}

// InodeLocks returns the inode-lock shards (RootInode first).
func (fs *FileSystem) InodeLocks() []*lock.Lock { return fs.inodes }

// PageInsertContention returns the total acquisitions and queueing time
// across all page-insert-lock stripes.
func (fs *FileSystem) PageInsertContention() (acquisitions int64, wait sim.Time) {
	return fs.pageInsert.Totals()
}

// withInsertLock runs fn holding the page-insert-lock stripe for
// (f, idx) on behalf of spu.
func (fs *FileSystem) withInsertLock(spu core.SPUID, f *File, idx int64, fn func()) {
	stripe := fs.pageInsert.Shard(uint64(f.seq*1315423911 + idx))
	stripe.Acquire(spu, false, fs.PageInsertHold, fn)
}

// submit issues a disk request with graceful degradation: a transfer
// failed by an injected transient fault is resubmitted with exponential
// backoff until it succeeds, and only then does the request's original
// Done callback run. The backoff runs under a deadline-aware retry
// budget (control.NewBudget): while it lasts the schedule matches the
// old unbounded loop exactly, and once it is spent the request keeps
// retrying only at the bounded slow-lane cadence — cached file data
// lives on one disk, so throttling is the degraded path, and a long
// fault can no longer turn the cache into a full-rate retry storm.
// Every fs-originated request goes through here.
func (fs *FileSystem) submit(d *disk.Disk, r *disk.Request) {
	inner := r.Done
	budget := control.NewBudget()
	r.Done = func(rr *disk.Request) {
		if rr.Failed {
			fs.Stat.Retries++
			wait, degraded := budget.Next()
			if degraded {
				fs.Stat.Clamped++
				fs.Metrics.Counter(metrics.KeyControlClamped, rr.SPU).Inc()
			}
			fs.Metrics.Counter(metrics.KeyFSRetries, rr.SPU).Inc()
			fs.Metrics.Counter(metrics.KeyFSBackoffNS, rr.SPU).AddTime(wait)
			rr.Backoff += wait // profiled separately from genuine queueing
			fs.eng.After(wait, "fs.retry", func() { d.Submit(rr) })
			return
		}
		if inner != nil {
			inner(rr)
		}
	}
	d.Submit(r)
}

// DirtyPages returns the number of dirty cache pages.
func (fs *FileSystem) DirtyPages() int { return len(fs.dirty) }

// CachedPages returns the number of resident cache pages.
func (fs *FileSystem) CachedPages() int { return len(fs.cache) }

// lookup returns the cache entry for (f, idx), creating it if absent,
// and touches its frame for LRU/shared accounting.
func (fs *FileSystem) lookup(spu core.SPUID, f *File, idx int64) *CachePage {
	key := cacheKey{f, idx}
	cp, ok := fs.cache[key]
	if !ok {
		cp = &CachePage{fs: fs, file: f, idx: idx}
		fs.cache[key] = cp
	}
	if cp.page != nil {
		fs.mm.Touch(cp.page, spu)
	}
	return cp
}

// Lookup models a pathname lookup through the root inode (§3.4): the
// caller queues on the inode semaphore (shared when the semaphore is in
// readers-writer mode) and proceeds after the hold time.
func (fs *FileSystem) Lookup(spu core.SPUID, done func()) {
	fs.Stat.Lookups++
	shard := fs.inodes[int(spu)%len(fs.inodes)]
	shard.Acquire(spu, true, fs.LookupHold, func() {
		fs.eng.After(fs.LookupHold, "fs.lookup", done)
	})
}

// Read reads [off, off+n) of the file on behalf of spu and calls done
// when every byte is in the cache. Sequential reads trigger read-ahead.
func (fs *FileSystem) Read(spu core.SPUID, f *File, off, n int64, done func()) {
	if n <= 0 {
		done()
		return
	}
	if off+n > f.Size {
		n = f.Size - off
		if n <= 0 {
			done()
			return
		}
	}
	first := off / mem.PageSize
	last := (off + n - 1) / mem.PageSize
	sequential := off == f.lastReadEnd || off == 0
	f.lastReadEnd = off + n

	pending := 1 // guard: released after issuing, so synchronous page
	// completions cannot fire done before the whole range is examined
	fired := false
	finish := func() {
		if pending == 0 && !fired {
			fired = true
			done()
		}
	}
	for idx := first; idx <= last; idx++ {
		cp := fs.lookup(spu, f, idx)
		if cp.valid {
			fs.Stat.Hits++
			continue
		}
		fs.Stat.Misses++
		pending++
		cp.waiters = append(cp.waiters, func() {
			// The waiter did access the page: record the touch so a
			// second SPU reading concurrently still re-tags the page
			// to the shared SPU (§2.2 shared-library accounting).
			if cp.page != nil {
				fs.mm.Touch(cp.page, spu)
			}
			pending--
			finish()
		})
	}
	fs.fill(spu, f, first, last)
	if sequential && fs.ReadAheadPages > 0 {
		raLast := last + fs.ReadAheadPages
		if max := f.NumPages() - 1; raLast > max {
			raLast = max
		}
		if raLast > last {
			fs.fill(spu, f, last+1, raLast)
		}
	}
	pending-- // release the guard
	finish()
}

// fill issues clustered disk reads for the invalid, idle pages in
// [from, to] of the file.
func (fs *FileSystem) fill(spu core.SPUID, f *File, from, to int64) {
	idx := from
	for idx <= to {
		cp := fs.lookup(spu, f, idx)
		if cp.valid || cp.io {
			idx++
			continue
		}
		// Grow a cluster of consecutive needy pages that are also
		// contiguous on disk.
		cluster := []*CachePage{cp}
		for len(cluster) < ClusterPages && idx+int64(len(cluster)) <= to {
			nidx := idx + int64(len(cluster))
			if !f.contiguousWith(nidx - 1) {
				break
			}
			ncp := fs.lookup(spu, f, nidx)
			if ncp.valid || ncp.io {
				break
			}
			cluster = append(cluster, ncp)
		}
		idx += int64(len(cluster))
		fs.readCluster(spu, f, cluster)
	}
}

// readCluster allocates frames for the cluster's pages and then issues a
// single disk read covering them.
func (fs *FileSystem) readCluster(spu core.SPUID, f *File, cluster []*CachePage) {
	need := 0
	for _, cp := range cluster {
		cp.io = true
		if cp.page == nil {
			need++
		}
	}
	launched := false
	launch := func() {
		if launched || need > 0 {
			return
		}
		launched = true
		fs.Stat.ReadReqs++
		fs.submit(f.Disk, &disk.Request{
			Kind:   disk.Read,
			Sector: cluster[0].Sector(),
			Count:  len(cluster) * mem.SectorsPerPage,
			SPU:    spu,
			Done: func(*disk.Request) {
				for _, cp := range cluster {
					fs.mm.SetPinned(cp.page, false)
					cp.io = false
					cp.valid = true
					cp.notify()
				}
			},
		})
	}
	for _, cp := range cluster {
		if cp.page != nil {
			// Pin immediately: a sibling page's allocation below may
			// trigger reclaim, which must not steal this frame while
			// the cluster is being assembled.
			fs.mm.SetPinned(cp.page, true)
			continue
		}
		cp := cp
		// Inserting a page into the (file, offset) -> frame mapping
		// takes the page-insert-lock stripe (§3.4).
		fs.withInsertLock(spu, f, cp.idx, func() {
			fs.mm.Request(spu, mem.Cache, cp, func(p *mem.Page) {
				cp.page = p
				fs.mm.SetPinned(p, true)
				need--
				launch()
			})
		})
	}
	launch()
}

// Write writes [off, off+n) on behalf of spu as delayed writes: the data
// lands in cache pages marked dirty and done runs as soon as frames are
// available; a background flush (or the dirty high-water mark) pushes
// the data to disk later under the shared SPU.
func (fs *FileSystem) Write(spu core.SPUID, f *File, off, n int64, done func()) {
	if n <= 0 {
		done()
		return
	}
	if off+n > f.Size {
		n = f.Size - off
		if n <= 0 {
			done()
			return
		}
	}
	first := off / mem.PageSize
	last := (off + n - 1) / mem.PageSize
	pending := 1 // guard, as in Read
	fired := false
	finish := func() {
		if pending == 0 && !fired {
			fired = true
			done()
			if len(fs.dirty) > fs.DirtyHighWater {
				fs.Flush()
			}
		}
	}
	for idx := first; idx <= last; idx++ {
		cp := fs.lookup(spu, f, idx)
		if cp.page != nil {
			fs.markDirty(cp, spu)
			continue
		}
		if cp.io {
			// A read is fetching this page; dirty it once present.
			pending++
			cp.waiters = append(cp.waiters, func() {
				fs.markDirty(cp, spu)
				pending--
				finish()
			})
			continue
		}
		pending++
		cp.io = true
		cpIdx := idx
		fs.withInsertLock(spu, f, cpIdx, func() {
			fs.mm.Request(spu, mem.Cache, cp, func(p *mem.Page) {
				cp.page = p
				cp.io = false
				cp.valid = true // whole-page overwrite; no read-modify-write
				fs.markDirty(cp, spu)
				cp.notify()
				pending--
				finish()
			})
		})
	}
	pending-- // release the guard
	finish()
}

// markDirty marks a resident cache page dirty on behalf of spu.
func (fs *FileSystem) markDirty(cp *CachePage, spu core.SPUID) {
	cp.dirtier = spu
	if !cp.dirty {
		cp.dirty = true
		cp.dirtyPos = len(fs.dirty)
		fs.dirty = append(fs.dirty, cp)
		if cp.file.dirtyOrd == 0 {
			fs.dirtied++
			cp.file.dirtyOrd = fs.dirtied
		}
	}
	fs.mm.MarkDirty(cp.page)
	fs.mm.Touch(cp.page, spu)
}

// MetaUpdate models a metadata rewrite: a single-sector write to the
// file's metadata sector, issued synchronously under the caller's SPU —
// the pmake workload's "many repeated writes of meta-data to a single
// sector" (§4.5).
func (fs *FileSystem) MetaUpdate(spu core.SPUID, f *File, done func()) {
	fs.Stat.MetaWrites++
	fs.Stat.WriteReqs++
	fs.submit(f.Disk, &disk.Request{
		Kind:   disk.Write,
		Sector: f.metaSector,
		Count:  1,
		SPU:    spu,
		Done:   func(*disk.Request) { done() },
	})
}

// Flush writes every dirty, idle cache page to disk in clustered
// requests scheduled under the shared SPU, with per-page charges flowing
// back to the SPUs that dirtied them (§3.3). FlushTick is the kernel's
// periodic entry point; Flush may also fire on the high-water mark.
func (fs *FileSystem) Flush() {
	for _, cluster := range fs.flushBatches() {
		fs.flushCluster(cluster)
	}
}

// flushBatches returns the clusters Flush submits, in submission order:
// runs of up to FlushClusterPages dirty, idle pages of one file that
// are consecutive in the file and on disk.
func (fs *FileSystem) flushBatches() [][]*CachePage {
	var cps []*CachePage
	for _, cp := range fs.dirty {
		if !cp.io && !cp.page.Pinned() {
			cps = append(cps, cp)
		}
	}
	// A total order, so request submission — and thus whole runs — never
	// depends on where pages sit in the dirty set: files by name (same
	// names by creation order on one disk, then by first dirtying across
	// disks), pages by index.
	sort.Slice(cps, func(i, j int) bool {
		a, b := cps[i], cps[j]
		if a.file != b.file {
			return a.file.flushesBefore(b.file)
		}
		return a.idx < b.idx
	})
	var batches [][]*CachePage
	for i := 0; i < len(cps); {
		f := cps[i].file
		cluster := []*CachePage{cps[i]}
		for int64(len(cluster)) < fs.FlushClusterPages && i+len(cluster) < len(cps) {
			prev, next := cluster[len(cluster)-1], cps[i+len(cluster)]
			if next.file != f || next.idx != prev.idx+1 || !f.contiguousWith(prev.idx) {
				break
			}
			cluster = append(cluster, next)
		}
		i += len(cluster)
		batches = append(batches, cluster)
	}
	return batches
}

// clearDirty removes a dirty page from the dirty set (swap-remove).
func (fs *FileSystem) clearDirty(cp *CachePage) {
	last := len(fs.dirty) - 1
	moved := fs.dirty[last]
	fs.dirty[cp.dirtyPos] = moved
	moved.dirtyPos = cp.dirtyPos
	fs.dirty[last] = nil
	fs.dirty = fs.dirty[:last]
	cp.dirty = false
}

// FlushTick is the bdflush daemon entry point, called by the kernel
// every FlushPeriod.
func (fs *FileSystem) FlushTick() { fs.Flush() }

// flushCluster writes one batch of dirty pages of one file as a single
// shared-SPU request.
func (fs *FileSystem) flushCluster(cluster []*CachePage) {
	charges := make(map[core.SPUID]int)
	for _, cp := range cluster {
		fs.mm.SetPinned(cp.page, true)
		cp.io = true
		charges[cp.dirtier] += mem.SectorsPerPage
	}
	var chargeList []disk.Charge
	for spu, sectors := range charges {
		chargeList = append(chargeList, disk.Charge{SPU: spu, Sectors: sectors})
	}
	for i := 1; i < len(chargeList); i++ {
		for j := i; j > 0 && chargeList[j-1].SPU > chargeList[j].SPU; j-- {
			chargeList[j-1], chargeList[j] = chargeList[j], chargeList[j-1]
		}
	}
	fs.Stat.Flushes++
	fs.Stat.WriteReqs++
	fs.submit(cluster[0].file.Disk, &disk.Request{
		Kind:    disk.Write,
		Sector:  cluster[0].Sector(),
		Count:   len(cluster) * mem.SectorsPerPage,
		SPU:     core.SharedID,
		Charges: chargeList,
		Done: func(*disk.Request) {
			for _, cp := range cluster {
				fs.mm.SetPinned(cp.page, false)
				cp.io = false
				if cp.dirty {
					fs.clearDirty(cp)
					fs.mm.SetDirty(cp.page, false)
				}
				cp.notify()
			}
		},
	})
}

// WritebackEvicted is the kernel pageout hook for dirty *cache* pages
// chosen by the memory manager's reclaim: it writes the page to its file
// location under the shared SPU and calls done when the frame may be
// reused.
func (fs *FileSystem) WritebackEvicted(p *mem.Page, done func()) bool {
	cp, ok := p.Owner.(*CachePage)
	if !ok {
		return false
	}
	fs.Stat.WriteReqs++
	fs.submit(cp.file.Disk, &disk.Request{
		Kind:    disk.Write,
		Sector:  cp.file.SectorOfPage(cp.idx),
		Count:   mem.SectorsPerPage,
		SPU:     core.SharedID,
		Charges: []disk.Charge{{SPU: cp.dirtier, Sectors: mem.SectorsPerPage}},
		Done:    func(*disk.Request) { done() },
	})
	return true
}
