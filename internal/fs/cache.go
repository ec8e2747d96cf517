package fs

import (
	"perfiso/internal/core"
	"perfiso/internal/mem"
)

// cacheKey identifies one page of one file.
type cacheKey struct {
	file *File
	idx  int64
}

// CachePage is one buffer-cache entry. It implements mem.Owner so the
// memory manager can reclaim cache pages under memory pressure, exactly
// like process pages — the paper counts the file buffer cache against
// the owning SPU's memory (§3.2).
type CachePage struct {
	fs   *FileSystem
	file *File
	idx  int64

	page     *mem.Page
	valid    bool // contents present
	dirty    bool
	io       bool // read or allocation in flight
	dirtier  core.SPUID
	dirtyPos int // position in FileSystem.dirty while dirty
	waiters  []func()
}

// PageEvicted implements mem.Owner: the cache forgets the page; future
// reads fault it back in from disk. Dirty contents are written back by
// the memory manager's pageout path before the frame is reused.
func (cp *CachePage) PageEvicted(p *mem.Page) {
	if cp.dirty {
		cp.fs.clearDirty(cp)
	}
	cp.page = nil
	cp.valid = false
	delete(cp.fs.cache, cacheKey{cp.file, cp.idx})
}

// File returns the file this cache page belongs to.
func (cp *CachePage) File() *File { return cp.file }

// Index returns the page index within the file.
func (cp *CachePage) Index() int64 { return cp.idx }

// Sector returns the first disk sector backing this page.
func (cp *CachePage) Sector() int64 { return cp.file.SectorOfPage(cp.idx) }

// notify wakes everything waiting for this page to become valid.
func (cp *CachePage) notify() {
	ws := cp.waiters
	cp.waiters = nil
	for _, w := range ws {
		w()
	}
}
