package fs

import (
	"fmt"
	"reflect"
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/disk"
	"perfiso/internal/mem"
	"perfiso/internal/sim"
)

// refFlushBatches is Flush's batching before the dirty set: a walk of
// the whole buffer cache, then insertion sorts of the files and of each
// file's pages. It is kept as the reference FuzzFlushBatches compares
// flushBatches with. Files sort with flushesBefore; by name alone,
// same-named files came out in map iteration order.
func refFlushBatches(fs *FileSystem) [][]*CachePage {
	byFile := make(map[*File][]*CachePage)
	var files []*File
	for _, cp := range fs.cache {
		if cp.dirty && !cp.io && cp.page != nil && !cp.page.Pinned() {
			if len(byFile[cp.file]) == 0 {
				files = append(files, cp.file)
			}
			byFile[cp.file] = append(byFile[cp.file], cp)
		}
	}
	for i := 1; i < len(files); i++ {
		for j := i; j > 0 && files[j].flushesBefore(files[j-1]); j-- {
			files[j-1], files[j] = files[j], files[j-1]
		}
	}
	var batches [][]*CachePage
	for _, f := range files {
		cps := byFile[f]
		for i := 1; i < len(cps); i++ {
			for j := i; j > 0 && cps[j-1].idx > cps[j].idx; j-- {
				cps[j-1], cps[j] = cps[j], cps[j-1]
			}
		}
		i := 0
		for i < len(cps) {
			cluster := []*CachePage{cps[i]}
			for int64(len(cluster)) < fs.FlushClusterPages && i+len(cluster) < len(cps) {
				prev, next := cluster[len(cluster)-1], cps[i+len(cluster)]
				if next.idx != prev.idx+1 || !f.contiguousWith(prev.idx) {
					break
				}
				cluster = append(cluster, next)
			}
			i += len(cluster)
			batches = append(batches, cluster)
		}
	}
	return batches
}

// checkDirtySet requires the dirty set to hold exactly the cache's
// dirty pages, each at its recorded position.
func checkDirtySet(fs *FileSystem) error {
	for i, cp := range fs.dirty {
		if !cp.dirty || cp.dirtyPos != i {
			return fmt.Errorf("dirty set slot %d: dirty=%v pos=%d", i, cp.dirty, cp.dirtyPos)
		}
		if fs.cache[cacheKey{cp.file, cp.idx}] != cp {
			return fmt.Errorf("dirty set slot %d: page %s/%d not in the cache", i, cp.file.Name, cp.idx)
		}
	}
	n := 0
	for _, cp := range fs.cache {
		if cp.dirty {
			n++
		}
	}
	if n != len(fs.dirty) {
		return fmt.Errorf("cache holds %d dirty pages, dirty set %d", n, len(fs.dirty))
	}
	return nil
}

// twoDiskRig is newRig with a second disk and allocator: files on
// different disks can share a name and an allocation seq.
func twoDiskRig(pages int) (*fsRig, *Allocator) {
	r := newRig(pages)
	d2 := disk.New(r.eng, disk.HP97560(), disk.NewIso(), 0)
	return r, NewAllocator(d2, sim.NewRNG(2))
}

// FuzzFlushBatches drives writes, reads, flushes and disk completions
// through a small cache (so reclaim evicts clean and dirty cache pages)
// holding same-named files on one disk and on two, and requires
// flushBatches to return the reference cache walk's batches, and the
// dirty set to hold exactly the dirty pages, after every step. The seed
// corpus runs with the normal tests; `go test -run '^$' -fuzz
// FuzzFlushBatches ./internal/fs` explores further.
func FuzzFlushBatches(f *testing.F) {
	f.Add([]byte{0, 0, 0, 9, 0, 1, 4, 9, 3, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{0, 2, 3, 40, 1, 3, 0, 16, 0, 4, 8, 20, 3, 1, 0, 0, 2, 0, 0, 0, 0, 0, 1, 2})
	f.Add([]byte{0, 0, 0, 60, 0, 1, 0, 60, 0, 2, 0, 60, 0, 3, 0, 60, 0, 4, 0, 60, 3, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte("write, read, flush, complete: the dirty set must match the cache walk"))
	f.Add([]byte("02080018")) // the next file's first dirty page follows this file's last
	f.Fuzz(func(t *testing.T, ops []byte) {
		r, al2 := twoDiskRig(48)
		r.fs.FlushClusterPages = 4
		files := []*File{
			r.al.NewFile("copy.dst", 24*mem.PageSize, Contiguous, 0),
			r.al.NewFile("copy.dst", 24*mem.PageSize, Scattered, 3),
			r.al.NewFile("a.obj", 12*mem.PageSize, Scattered, 1),
			al2.NewFile("copy.dst", 24*mem.PageSize, Contiguous, 0),
			al2.NewFile("a.obj", 12*mem.PageSize, Contiguous, 0),
		}
		spus := []core.SPUID{spuA, spuB}
		for i, step := 0, 0; i+3 < len(ops); i, step = i+4, step+1 {
			op, a, b, c := ops[i], int(ops[i+1]), int(ops[i+2]), int(ops[i+3])
			file := files[a%len(files)]
			spu := spus[a/len(files)%len(spus)]
			off := int64(b) % file.NumPages() * mem.PageSize
			n := int64(1+c%16) * mem.PageSize
			switch op % 4 {
			case 0:
				r.fs.Write(spu, file, off, n, func() {})
			case 1:
				r.fs.Read(spu, file, off, n, func() {})
			case 2:
				if got, want := r.fs.flushBatches(), refFlushBatches(r.fs); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: flush batches differ from the cache walk's", step)
				}
				r.fs.Flush()
			case 3:
				r.eng.RunUntil(r.eng.Now() + sim.Time(b%8)*sim.Time(c+1)*sim.Millisecond)
			}
			if err := checkDirtySet(r.fs); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if got, want := r.fs.flushBatches(), refFlushBatches(r.fs); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: flush batches differ from the cache walk's", step)
			}
		}
	})
}

// flushOrder dirties the first pages of each file, the second copy
// job's files first, flushes, and returns the files in the order their
// write requests completed. Both disks run Iso, which serves a
// shared-only queue FIFO, and the files' write requests land on
// identical positions of identical disks, so completion order is
// submission order.
func flushOrder(t *testing.T, twoDisks bool) []string {
	r, al2 := twoDiskRig(1000)
	r.d.SetScheduler(disk.NewIso())
	al := r.al
	if twoDisks {
		al = al2
	}
	files := []*File{
		r.al.NewFile("copy.src", 8*mem.PageSize, Contiguous, 0),
		r.al.NewFile("copy.dst", 8*mem.PageSize, Contiguous, 0),
		al.NewFile("copy.src", 8*mem.PageSize, Contiguous, 0),
		al.NewFile("copy.dst", 8*mem.PageSize, Contiguous, 0),
	}
	var order []string
	for i := len(files) - 1; i >= 0; i-- {
		r.fs.Write(spuA, files[i], 0, 4*mem.PageSize, func() {})
	}
	r.eng.Run()
	for _, cp := range r.fs.cache {
		if cp.idx != 0 {
			continue
		}
		cp := cp
		d := 0
		if cp.file.Disk != r.d {
			d = 1
		}
		cp.waiters = append(cp.waiters, func() {
			order = append(order, fmt.Sprintf("disk%d:%s#%d", d, cp.file.Name, cp.file.seq))
		})
	}
	r.fs.Flush()
	r.eng.Run()
	if r.fs.Stat.Flushes != int64(len(files)) {
		t.Fatalf("%d flush requests, want one per file (%d)", r.fs.Stat.Flushes, len(files))
	}
	return order
}

// Same-named files — two copy jobs given one name — must flush in the
// same order in every fresh file system: on one disk in creation
// order, and on two, where both jobs' files share a creation seq, in
// the order they were first dirtied.
func TestFlushOrderDeterministicForSameNamedFiles(t *testing.T) {
	want := map[bool][]string{
		false: {"disk0:copy.dst#1", "disk0:copy.dst#3", "disk0:copy.src#0", "disk0:copy.src#2"},
		true:  {"disk1:copy.dst#1", "disk0:copy.dst#1", "disk1:copy.src#0", "disk0:copy.src#0"},
	}
	for _, twoDisks := range []bool{false, true} {
		first := flushOrder(t, twoDisks)
		if !reflect.DeepEqual(first, want[twoDisks]) {
			t.Fatalf("two disks %v: flushed %v, want %v", twoDisks, first, want[twoDisks])
		}
		for i := 1; i < 20; i++ {
			if got := flushOrder(t, twoDisks); !reflect.DeepEqual(got, first) {
				t.Fatalf("two disks %v: flush %d wrote\n%v\nflush 0 wrote\n%v", twoDisks, i, got, first)
			}
		}
	}
}
