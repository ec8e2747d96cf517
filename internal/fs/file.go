package fs

import (
	"fmt"

	"perfiso/internal/disk"
	"perfiso/internal/mem"
	"perfiso/internal/sim"
)

// Layout describes how a file's sectors are placed on disk.
type Layout int

const (
	// Contiguous lays the file out as one sequential extent — the large
	// copy files of §4.5, whose requests "are mostly contiguous".
	Contiguous Layout = iota
	// Scattered fragments the file across the disk — the pmake source
	// tree, whose requests "are not all contiguous as they access
	// multiple files".
	Scattered
)

// extent is a run of consecutive sectors.
type extent struct {
	start int64
	count int64
}

// File is one simulated file: a size and a sector map on one disk.
type File struct {
	Name string
	Size int64 // bytes
	Disk *disk.Disk

	extents    []extent
	metaSector int64 // where metadata rewrites land (a single sector)
	seq        int64 // allocation order; deterministic identity for hashing
	// dirtyOrd is 1 + the order in which the file system first dirtied
	// the file (0 before). Files on different disks come from different
	// allocators and may share a name and a seq; dirtyOrd still tells
	// them apart deterministically when Flush orders them.
	dirtyOrd int64

	// lastReadEnd supports sequential-access detection for read-ahead.
	lastReadEnd int64
}

// NumPages returns the number of PageSize pages the file spans.
func (f *File) NumPages() int64 {
	return (f.Size + mem.PageSize - 1) / mem.PageSize
}

// SectorOfPage returns the first sector backing page index idx.
func (f *File) SectorOfPage(idx int64) int64 {
	want := idx * mem.SectorsPerPage
	for _, e := range f.extents {
		if want < e.count {
			return e.start + want
		}
		want -= e.count
	}
	panic(fmt.Sprintf("fs: page %d beyond file %q (%d bytes)", idx, f.Name, f.Size))
}

// flushesBefore orders files for Flush: by name, then creation order,
// then first dirtying.
func (f *File) flushesBefore(g *File) bool {
	if f.Name != g.Name {
		return f.Name < g.Name
	}
	if f.seq != g.seq {
		return f.seq < g.seq
	}
	return f.dirtyOrd < g.dirtyOrd
}

// contiguousWith reports whether page idx+1 directly follows page idx on
// disk, so the two can share one request.
func (f *File) contiguousWith(idx int64) bool {
	if idx+1 >= f.NumPages() {
		return false
	}
	return f.SectorOfPage(idx+1) == f.SectorOfPage(idx)+mem.SectorsPerPage
}

// Allocator hands out disk space for files. Contiguous allocations
// advance a pointer; scattered allocations spread fragments across the
// disk deterministically from a seeded RNG.
type Allocator struct {
	d    *disk.Disk
	next int64
	rng  *sim.RNG
	seq  int64
}

// NewAllocator creates an allocator for one disk.
func NewAllocator(d *disk.Disk, rng *sim.RNG) *Allocator {
	// Leave the first cylinder for metadata.
	return &Allocator{d: d, next: d.Params().SectorsPerCylinder(), rng: rng}
}

// MaxFileBytes is the largest file a disk with these parameters holds:
// its data area, every cylinder but the first (kept for metadata), in
// whole pages.
func MaxFileBytes(p disk.Params) int64 {
	return (p.TotalSectors() - p.SectorsPerCylinder()) / mem.SectorsPerPage * mem.PageSize
}

// NewFile creates and places a file. Scattered files are broken into
// fragments of at most fragPages pages each, placed at pseudo-random
// cylinders; pass 0 for the default of 2 pages. A file larger than the
// disk's data area (MaxFileBytes) panics.
func (a *Allocator) NewFile(name string, size int64, layout Layout, fragPages int64) *File {
	if size <= 0 {
		panic(fmt.Sprintf("fs: file %q with size %d", name, size))
	}
	if max := MaxFileBytes(a.d.Params()); size > max {
		panic(fmt.Sprintf("fs: file %q of %d bytes exceeds the %d-byte data area of its disk", name, size, max))
	}
	f := &File{Name: name, Size: size, Disk: a.d, seq: a.seq}
	a.seq++
	sectors := ((size + mem.PageSize - 1) / mem.PageSize) * mem.SectorsPerPage
	total := a.d.Params().TotalSectors()
	switch layout {
	case Contiguous:
		if a.next+sectors > total {
			a.next = a.d.Params().SectorsPerCylinder() // wrap: simulation reuse
		}
		f.extents = append(f.extents, extent{start: a.next, count: sectors})
		a.next += sectors
	case Scattered:
		if fragPages <= 0 {
			fragPages = 2
		}
		fragSectors := fragPages * mem.SectorsPerPage
		for left := sectors; left > 0; {
			n := fragSectors
			if n > left {
				n = left
			}
			spc := a.d.Params().SectorsPerCylinder()
			cyl := int64(a.rng.Intn(a.d.Params().Cylinders - 2))
			start := (cyl + 1) * spc // skip metadata cylinder
			if start+n > total {
				start = total - n
			}
			f.extents = append(f.extents, extent{start: start, count: n})
			left -= n
		}
	}
	// Metadata sector: a fixed sector in the first cylinder, distinct
	// per file (hash of name length and allocation order).
	f.metaSector = int64(len(name)+int(a.next)) % a.d.Params().SectorsPerCylinder()
	return f
}
