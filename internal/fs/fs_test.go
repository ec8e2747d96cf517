package fs

import (
	"strings"
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/disk"
	"perfiso/internal/lock"
	"perfiso/internal/mem"
	"perfiso/internal/sim"
)

const (
	spuA = core.FirstUserID
	spuB = core.FirstUserID + 1
)

type fsRig struct {
	eng  *sim.Engine
	spus *core.Manager
	mm   *mem.Manager
	d    *disk.Disk
	fs   *FileSystem
	al   *Allocator
}

func newRig(pages int) *fsRig { return newLockedRig(pages, 1, 0) }

// newLockedRig is newRig with the given inode shards and page-insert
// stripes (0: the default striping).
func newLockedRig(pages, inodeShards, stripes int) *fsRig {
	eng := sim.NewEngine()
	spus := core.NewManager()
	spus.NewSPU("a", 1, core.ShareIdle)
	spus.NewSPU("b", 1, core.ShareIdle)
	mm := mem.NewManager(eng, spus, pages, 0)
	mm.DivideAmongSPUs()
	d := disk.New(eng, disk.HP97560(), disk.NewPIso(0), 0)
	f := New(eng, mm, lock.NewTable(eng, nil), SemRW, inodeShards, stripes)
	// Wire dirty cache eviction back into the disk, as the kernel does.
	mm.SetPageout(func(p *mem.Page, done func(ok bool)) {
		if !f.WritebackEvicted(p, func() { done(true) }) {
			done(true)
		}
	})
	return &fsRig{eng: eng, spus: spus, mm: mm, d: d, fs: f,
		al: NewAllocator(d, sim.NewRNG(1))}
}

func TestFileLayoutContiguous(t *testing.T) {
	r := newRig(1000)
	f := r.al.NewFile("big", 1<<20, Contiguous, 0) // 1 MB = 256 pages
	if f.NumPages() != 256 {
		t.Fatalf("NumPages = %d", f.NumPages())
	}
	for i := int64(0); i < 255; i++ {
		if !f.contiguousWith(i) {
			t.Fatalf("page %d not contiguous in a contiguous file", i)
		}
	}
}

func TestFileLayoutScattered(t *testing.T) {
	r := newRig(1000)
	f := r.al.NewFile("src", 64*mem.PageSize, Scattered, 2)
	breaks := 0
	for i := int64(0); i < f.NumPages()-1; i++ {
		if !f.contiguousWith(i) {
			breaks++
		}
	}
	if breaks < 20 {
		t.Fatalf("scattered file has only %d breaks in 64 pages", breaks)
	}
}

func TestAllocatorRejectsEmptyFile(t *testing.T) {
	r := newRig(100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.al.NewFile("empty", 0, Contiguous, 0)
}

// A file that fits the data area exactly lays out inside the disk; one
// byte more panics with the file's name instead of handing out sectors
// past the last one.
func TestAllocatorRejectsFileLargerThanDisk(t *testing.T) {
	r := newRig(100)
	max := MaxFileBytes(r.d.Params())
	f := r.al.NewFile("fits", max, Contiguous, 0)
	if last := f.SectorOfPage(f.NumPages()-1) + mem.SectorsPerPage; last > r.d.Params().TotalSectors() {
		t.Fatalf("largest file ends at sector %d, past the disk's %d", last, r.d.Params().TotalSectors())
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, `"huge"`) {
			t.Fatalf("panic %q does not name the file", msg)
		}
	}()
	r.al.NewFile("huge", max+1, Contiguous, 0)
}

func TestSectorOfPageBeyondEOFPanics(t *testing.T) {
	r := newRig(100)
	f := r.al.NewFile("f", mem.PageSize, Contiguous, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.SectorOfPage(5)
}

func TestReadMissThenHit(t *testing.T) {
	r := newRig(1000)
	f := r.al.NewFile("f", 64*1024, Contiguous, 0)
	done1, done2 := sim.Time(-1), sim.Time(-1)
	r.fs.Read(spuA, f, 0, 16*1024, func() { done1 = r.eng.Now() })
	r.eng.Run()
	if done1 < 0 {
		t.Fatal("first read never completed")
	}
	if done1 == 0 {
		t.Fatal("cold read completed instantly (no disk IO modeled?)")
	}
	misses := r.fs.Stat.Misses
	r.fs.Read(spuA, f, 0, 16*1024, func() { done2 = r.eng.Now() })
	if done2 != r.eng.Now() {
		t.Fatal("warm read should complete synchronously from cache")
	}
	if r.fs.Stat.Misses != misses {
		t.Fatal("warm read missed the cache")
	}
	if r.fs.Stat.Hits == 0 {
		t.Fatal("no hits recorded")
	}
}

func TestReadClustersRequests(t *testing.T) {
	r := newRig(1000)
	f := r.al.NewFile("f", 64*1024, Contiguous, 0) // 16 pages
	r.fs.ReadAheadPages = 0
	r.fs.Read(spuA, f, 0, 64*1024, func() {})
	r.eng.Run()
	// 16 pages at 8 pages/cluster = 2 requests.
	if r.fs.Stat.ReadReqs != 2 {
		t.Fatalf("ReadReqs = %d, want 2", r.fs.Stat.ReadReqs)
	}
}

func TestScatteredFileNeedsMoreRequests(t *testing.T) {
	r := newRig(1000)
	cont := r.al.NewFile("c", 64*1024, Contiguous, 0)
	scat := r.al.NewFile("s", 64*1024, Scattered, 1)
	r.fs.ReadAheadPages = 0
	r.fs.Read(spuA, cont, 0, 64*1024, func() {})
	r.eng.Run()
	contReqs := r.fs.Stat.ReadReqs
	r.fs.Read(spuA, scat, 0, 64*1024, func() {})
	r.eng.Run()
	scatReqs := r.fs.Stat.ReadReqs - contReqs
	if scatReqs <= contReqs {
		t.Fatalf("scattered file used %d requests vs %d contiguous", scatReqs, contReqs)
	}
}

func TestSequentialReadAhead(t *testing.T) {
	r := newRig(1000)
	f := r.al.NewFile("f", 256*1024, Contiguous, 0)
	// Read the first 16 KB; read-ahead should prefetch beyond it.
	r.fs.Read(spuA, f, 0, 16*1024, func() {})
	r.eng.Run()
	if r.fs.CachedPages() <= 4 {
		t.Fatalf("cached %d pages; read-ahead did not prefetch", r.fs.CachedPages())
	}
	// The second sequential chunk should now be partly or fully cached.
	missesBefore := r.fs.Stat.Misses
	var completed bool
	r.fs.Read(spuA, f, 16*1024, 16*1024, func() { completed = true })
	if !completed {
		r.eng.Run()
	}
	if r.fs.Stat.Misses != missesBefore {
		t.Fatal("sequential continuation missed despite read-ahead")
	}
}

func TestWriteIsDelayedUntilFlush(t *testing.T) {
	r := newRig(1000)
	f := r.al.NewFile("f", 64*1024, Contiguous, 0)
	var wrote bool
	r.fs.Write(spuA, f, 0, 32*1024, func() { wrote = true })
	r.eng.Run()
	if !wrote {
		t.Fatal("write never completed")
	}
	if r.fs.DirtyPages() != 8 {
		t.Fatalf("dirty pages = %d, want 8", r.fs.DirtyPages())
	}
	if r.d.Total.Requests != 0 {
		t.Fatal("delayed write hit the disk immediately")
	}
	r.fs.FlushTick()
	r.eng.Run()
	if r.fs.DirtyPages() != 0 {
		t.Fatalf("dirty pages after flush = %d", r.fs.DirtyPages())
	}
	if r.d.Total.Requests == 0 {
		t.Fatal("flush issued no disk writes")
	}
}

func TestFlushRunsUnderSharedSPUWithChargeback(t *testing.T) {
	r := newRig(1000)
	f := r.al.NewFile("f", 64*1024, Contiguous, 0)
	r.fs.Write(spuA, f, 0, 32*1024, func() {})
	r.fs.FlushTick()
	r.eng.Run()
	st, ok := r.d.PerSPU[core.SharedID]
	if !ok || st.Requests == 0 {
		t.Fatal("flush requests not scheduled under the shared SPU")
	}
	if r.d.Usage(spuA) == 0 {
		t.Fatal("flushed sectors not charged back to the dirtying SPU")
	}
}

func TestFlushClustersContiguousPages(t *testing.T) {
	r := newRig(1000)
	f := r.al.NewFile("f", 256*1024, Contiguous, 0) // 64 pages
	r.fs.Write(spuA, f, 0, 256*1024, func() {})
	r.fs.FlushTick()
	r.eng.Run()
	// 64 dirty pages at 16 pages/cluster = 4 write requests.
	if got := r.fs.Stat.Flushes; got != 4 {
		t.Fatalf("flush clusters = %d, want 4", got)
	}
}

func TestDirtyHighWaterTriggersFlush(t *testing.T) {
	r := newRig(1000)
	r.fs.DirtyHighWater = 4
	f := r.al.NewFile("f", 256*1024, Contiguous, 0)
	r.fs.Write(spuA, f, 0, 64*1024, func() {}) // 16 pages > high water
	r.eng.Run()
	if r.d.Total.Requests == 0 {
		t.Fatal("high-water mark did not trigger a flush")
	}
}

func TestMetaUpdateWritesSingleSector(t *testing.T) {
	r := newRig(1000)
	f := r.al.NewFile("f", 64*1024, Contiguous, 0)
	var done bool
	r.fs.MetaUpdate(spuA, f, func() { done = true })
	r.eng.Run()
	if !done {
		t.Fatal("meta update never completed")
	}
	if r.d.Total.Requests != 1 || r.d.Total.Sectors != 1 {
		t.Fatalf("meta update: %d requests, %d sectors", r.d.Total.Requests, r.d.Total.Sectors)
	}
}

func TestCachePagesChargedToSPU(t *testing.T) {
	r := newRig(1000)
	f := r.al.NewFile("f", 64*1024, Contiguous, 0)
	r.fs.ReadAheadPages = 0
	r.fs.Read(spuA, f, 0, 64*1024, func() {})
	r.eng.Run()
	if used := r.spus.Get(spuA).Used(core.Memory); used != 16 {
		t.Fatalf("SPU memory charge = %g, want 16 cache pages", used)
	}
}

func TestCrossSPUAccessRetagsToShared(t *testing.T) {
	r := newRig(1000)
	f := r.al.NewFile("lib", 64*1024, Contiguous, 0)
	r.fs.ReadAheadPages = 0
	r.fs.Read(spuA, f, 0, 64*1024, func() {})
	r.eng.Run()
	r.fs.Read(spuB, f, 0, 64*1024, func() {})
	r.eng.Run()
	if got := r.spus.Shared().Used(core.Memory); got != 16 {
		t.Fatalf("shared SPU pages = %g, want 16 (shared library pages, §2.2)", got)
	}
	if got := r.spus.Get(spuA).Used(core.Memory); got != 0 {
		t.Fatalf("first reader still charged %g pages", got)
	}
}

func TestEvictedCachePageFaultsBackIn(t *testing.T) {
	r := newRig(1000)
	f := r.al.NewFile("f", 16*1024, Contiguous, 0)
	r.fs.ReadAheadPages = 0
	r.fs.Read(spuA, f, 0, 16*1024, func() {})
	r.eng.Run()
	// Evict everything by pretending the pager chose these pages.
	for _, cp := range r.fs.cacheSnapshot() {
		p := cp.page
		cp.PageEvicted(p)
		r.mm.Free(p)
	}
	if r.fs.CachedPages() != 0 {
		t.Fatal("cache not empty after eviction")
	}
	missesBefore := r.fs.Stat.Misses
	r.fs.Read(spuA, f, 0, 16*1024, func() {})
	r.eng.Run()
	if r.fs.Stat.Misses == missesBefore {
		t.Fatal("re-read after eviction did not go to disk")
	}
}

// cacheSnapshot returns the live cache entries (test helper).
func (f *FileSystem) cacheSnapshot() []*CachePage {
	var out []*CachePage
	for _, cp := range f.cache {
		out = append(out, cp)
	}
	return out
}

func TestConcurrentReadsOfSamePageShareOneIO(t *testing.T) {
	r := newRig(1000)
	f := r.al.NewFile("f", 16*1024, Contiguous, 0)
	r.fs.ReadAheadPages = 0
	n := 0
	for i := 0; i < 5; i++ {
		r.fs.Read(spuA, f, 0, 16*1024, func() { n++ })
	}
	r.eng.Run()
	if n != 5 {
		t.Fatalf("%d of 5 overlapping reads completed", n)
	}
	if r.fs.Stat.ReadReqs != 1 {
		t.Fatalf("ReadReqs = %d, want 1 shared IO", r.fs.Stat.ReadReqs)
	}
}

func TestReadPastEOFTruncates(t *testing.T) {
	r := newRig(1000)
	f := r.al.NewFile("f", 10*1024, Contiguous, 0)
	var done bool
	r.fs.Read(spuA, f, 8*1024, 100*1024, func() { done = true })
	r.eng.Run()
	if !done {
		t.Fatal("EOF-truncated read never completed")
	}
	var done2 bool
	r.fs.Read(spuA, f, 20*1024, 4, func() { done2 = true })
	if !done2 {
		t.Fatal("read entirely past EOF should complete immediately")
	}
}
