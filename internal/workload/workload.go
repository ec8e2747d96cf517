// Package workload builds the applications of Table 1 as process
// programs: pmake jobs (parallel compiles mixing CPU, scattered file IO
// and metadata rewrites), large file copies (contiguous streaming IO),
// and the compute-bound scientific/engineering codes Ocean (a
// barrier-synchronized parallel application), Flashlite and VCS.
//
// The binaries themselves are unavailable, so each generator reproduces
// the *resource demand shape* the paper describes — process counts,
// CPU/IO mix, memory footprint, disk request patterns — which is all the
// evaluation depends on.
package workload

import (
	"fmt"

	"perfiso/internal/core"
	"perfiso/internal/fs"
	"perfiso/internal/kernel"
	"perfiso/internal/mem"
	"perfiso/internal/proc"
	"perfiso/internal/sched"
	"perfiso/internal/sim"
)

// PmakeParams shapes a pmake job.
type PmakeParams struct {
	// Parallel is the number of concurrent compile processes ("two
	// parallel compiles each" in the Pmake8 workload, four in the
	// memory-isolation workload).
	Parallel int
	// FilesPerCompile is how many source files each compile handles.
	FilesPerCompile int
	// ComputePerFile is the CPU time to compile one file.
	ComputePerFile sim.Time
	// WSSPages is each compile process's anonymous working set.
	WSSPages int
	// SrcBytes / ObjBytes are the source and object file sizes.
	SrcBytes, ObjBytes int64
	// SharedLib, when non-nil, is a file every compile reads at start —
	// the "shared library pages or code" of §2.2 that multiple SPUs
	// touch. Pass the same file to jobs in different SPUs and its cache
	// pages are re-tagged to the shared SPU, whose cost all user SPUs
	// bear.
	SharedLib *fs.File
}

// DefaultPmake returns the Pmake8 shape: two parallel compiles per job,
// with about 1.2 s of CPU per compile and ~1.2 MB of working set each.
func DefaultPmake() PmakeParams {
	return PmakeParams{
		Parallel:        2,
		FilesPerCompile: 8,
		ComputePerFile:  300 * sim.Millisecond,
		WSSPages:        300,
		SrcBytes:        64 * 1024,
		ObjBytes:        32 * 1024,
	}
}

// Pmake builds one pmake job for the SPU: a root that forks Parallel
// compile processes and waits for them. Source files are scattered on
// the SPU's affinity disk (pmake requests "are not all contiguous as
// they access multiple files and have many repeated writes of meta-data
// to a single sector", §4.5).
func Pmake(k *kernel.Kernel, spu core.SPUID, name string, p PmakeParams) *proc.Process {
	if p.Parallel <= 0 {
		panic(fmt.Sprintf("workload: pmake %q with %d compiles", name, p.Parallel))
	}
	al := k.AffinityAllocator(spu)
	steps := make([]proc.Step, 0, p.Parallel+1)
	for i := 0; i < p.Parallel; i++ {
		cname := fmt.Sprintf("%s.cc%d", name, i)
		var body []proc.Step
		if p.SharedLib != nil {
			body = append(body, proc.Read{File: p.SharedLib, Off: 0, N: p.SharedLib.Size})
		}
		body = append(body, proc.Touch{Pages: p.WSSPages})
		for j := 0; j < p.FilesPerCompile; j++ {
			src := al.NewFile(fmt.Sprintf("%s.src%d", cname, j), p.SrcBytes, fs.Scattered, 2)
			obj := al.NewFile(fmt.Sprintf("%s.obj%d", cname, j), p.ObjBytes, fs.Scattered, 2)
			body = append(body,
				proc.Lookup{},
				proc.Read{File: src, Off: 0, N: p.SrcBytes},
				proc.Compute{D: p.ComputePerFile},
				proc.Write{File: obj, Off: 0, N: p.ObjBytes},
				proc.Meta{File: obj},
			)
		}
		child := proc.New(k, spu, cname, body)
		steps = append(steps, proc.Fork{Child: child})
	}
	steps = append(steps, proc.WaitChildren{})
	return proc.New(k, spu, name, steps)
}

// DiskPmake returns the pmake shape used in the §4.5 pmake-copy
// workload on the 2-CPU machine: it makes on the order of the paper's
// "300 requests to the disk", scattered over many small files with
// repeated metadata writes.
func DiskPmake() PmakeParams {
	return PmakeParams{
		Parallel:        2,
		FilesPerCompile: 10,
		ComputePerFile:  800 * sim.Millisecond,
		WSSPages:        250,
		SrcBytes:        64 * 1024,
		ObjBytes:        32 * 1024,
	}
}

// CopyParams shapes a file-copy job.
type CopyParams struct {
	Bytes      int64    // file size
	ChunkBytes int64    // bytes per read/write loop iteration
	ComputePer sim.Time // per-chunk CPU (buffer copy cost)
}

// DefaultCopy returns the §4.5 large-copy shape: 64 KB chunks with a
// small per-chunk CPU cost.
func DefaultCopy(bytes int64) CopyParams {
	return CopyParams{Bytes: bytes, ChunkBytes: 64 * 1024, ComputePer: 200 * sim.Microsecond}
}

// Copy builds a process that copies a file of p.Bytes: sequential reads
// of the source and delayed writes of the destination, both contiguous
// on the SPU's affinity disk — the §4.5 stream that can lock out other
// SPUs under position-only scheduling.
func Copy(k *kernel.Kernel, spu core.SPUID, name string, p CopyParams) *proc.Process {
	al := k.AffinityAllocator(spu)
	src := al.NewFile(name+".src", p.Bytes, fs.Contiguous, 0)
	dst := al.NewFile(name+".dst", p.Bytes, fs.Contiguous, 0)
	var body []proc.Step
	for off := int64(0); off < p.Bytes; off += p.ChunkBytes {
		n := p.ChunkBytes
		if off+n > p.Bytes {
			n = p.Bytes - off
		}
		body = append(body,
			proc.Read{File: src, Off: off, N: n},
			proc.Compute{D: p.ComputePer},
			proc.Write{File: dst, Off: off, N: n},
		)
	}
	return proc.New(k, spu, name, body)
}

// OceanParams shapes the Ocean run.
type OceanParams struct {
	Procs      int      // gang size (four in the paper's workload)
	Iterations int      // barrier-separated phases
	Grain      sim.Time // CPU per process per phase
	// Imbalance is the extra per-phase CPU of process i (i*Imbalance):
	// the load imbalance that makes faster gang members idle at the
	// barrier — and thus exposes CPU-loan revocation latency.
	Imbalance sim.Time
	WSSPages  int // per-process working set
	// GangScheduled co-schedules the workers with the §3.1 [Ous82]
	// extension: all of them run simultaneously or none do.
	GangScheduled bool
}

// DefaultOcean returns the Fig. 5 shape: a 4-process gang with ~3 s of
// CPU per process, barrier-synchronized every 100 ms, with a slight
// load imbalance across the gang.
func DefaultOcean() OceanParams {
	return OceanParams{Procs: 4, Iterations: 30, Grain: 100 * sim.Millisecond,
		Imbalance: 500 * sim.Microsecond, WSSPages: 600}
}

// Ocean builds the gang: a root forks Procs workers that compute and
// meet at a shared barrier each iteration, so the whole gang advances at
// the pace of its slowest member — which is why interference hurts it
// under unconstrained SMP sharing.
func Ocean(k *kernel.Kernel, spu core.SPUID, name string, p OceanParams) *proc.Process {
	b := proc.NewBarrier(p.Procs)
	var steps []proc.Step
	var workers []*proc.Process
	for i := 0; i < p.Procs; i++ {
		grain := p.Grain + sim.Time(i)*p.Imbalance
		w := proc.NewGenerated(k, spu, fmt.Sprintf("%s.%d", name, i), proc.Looped(
			[]proc.Step{proc.Touch{Pages: p.WSSPages}},
			p.Iterations, []proc.Step{proc.Compute{D: grain}, proc.BarrierStep{B: b}}))
		workers = append(workers, w)
		steps = append(steps, proc.Fork{Child: w})
	}
	if p.GangScheduled {
		threads := make([]*sched.Thread, len(workers))
		for i, w := range workers {
			threads[i] = w.Thread()
		}
		k.Scheduler().NewGang(threads...)
	}
	steps = append(steps, proc.WaitChildren{})
	return proc.New(k, spu, name, steps)
}

// ComputeParams shapes a single long-running compute-bound process
// (Flashlite, VCS).
type ComputeParams struct {
	Total    sim.Time // total CPU demand
	Chunk    sim.Time // burst length between (rare) kernel entries
	WSSPages int
	// StartupRead, if non-zero, models the start-up phase's kernel/IO
	// time by reading that many bytes from a private file at launch.
	StartupRead int64
}

// DefaultFlashlite returns the Flashlite shape (~3.5 s of CPU).
func DefaultFlashlite() ComputeParams {
	return ComputeParams{Total: 3500 * sim.Millisecond, Chunk: 100 * sim.Millisecond,
		WSSPages: 400, StartupRead: 256 * 1024}
}

// DefaultVCS returns the VCS shape (~2.5 s of CPU).
func DefaultVCS() ComputeParams {
	return ComputeParams{Total: 2500 * sim.Millisecond, Chunk: 100 * sim.Millisecond,
		WSSPages: 500, StartupRead: 256 * 1024}
}

// ComputeBound builds one compute-bound process: a start-up read ("kernel
// time only at the start-up phase", §4.3), a working set, then pure CPU
// in Chunk bursts. The bursts are generated as the process reaches
// them, so a long hog holds no step per chunk.
func ComputeBound(k *kernel.Kernel, spu core.SPUID, name string, p ComputeParams) *proc.Process {
	var head []proc.Step
	if p.StartupRead > 0 {
		f := k.AffinityAllocator(spu).NewFile(name+".bin", p.StartupRead, fs.Contiguous, 0)
		head = append(head, proc.Lookup{}, proc.Read{File: f, Off: 0, N: p.StartupRead})
	}
	head = append(head, proc.Touch{Pages: p.WSSPages})
	chunks := int(p.Total / p.Chunk)
	if chunks < 1 {
		chunks = 1
	}
	var tail []proc.Step
	if rem := p.Total - sim.Time(chunks)*p.Chunk; rem > 0 {
		tail = []proc.Step{proc.Compute{D: rem}}
	}
	return proc.NewGenerated(k, spu, name,
		proc.Looped(head, chunks, []proc.Step{proc.Compute{D: p.Chunk}}, tail...))
}

// LookupParams shapes a metadata-bound process: a tight loop of
// pathname lookups separated by short compute bursts, with no file IO
// at all. It is the workload that hammers the inode semaphore (§3.4)
// without touching the page cache or the disks, so any cross-SPU
// interference it shows is lock interference and nothing else.
type LookupParams struct {
	// Lookups is the number of pathname lookups the process performs.
	Lookups int
	// Think is the CPU burst between lookups.
	Think sim.Time
}

// DefaultLookupLoop returns the shape the lock-leak experiment uses:
// enough lookups against a 30 ms hold to saturate a shared mutex while
// leaving a private lock idle.
func DefaultLookupLoop() LookupParams {
	return LookupParams{Lookups: 40, Think: 20 * sim.Millisecond}
}

// LookupLoop builds one metadata-bound process for the SPU.
func LookupLoop(k *kernel.Kernel, spu core.SPUID, name string, p LookupParams) *proc.Process {
	return proc.NewGenerated(k, spu, name, proc.Looped(nil, p.Lookups,
		[]proc.Step{proc.Lookup{}, proc.Compute{D: p.Think}}))
}

// MemPmake returns the pmake shape used by the memory-isolation
// workload: four parallel compiles per job with working sets sized so
// one job fits an SPU's half of the 16 MB machine but two jobs thrash.
func MemPmake() PmakeParams {
	return PmakeParams{
		Parallel:        4,
		FilesPerCompile: 4,
		ComputePerFile:  400 * sim.Millisecond,
		WSSPages:        250,
		SrcBytes:        64 * 1024,
		ObjBytes:        32 * 1024,
	}
}

// SizePages is a helper converting bytes to pages (rounding up).
func SizePages(bytes int64) int {
	return int((bytes + mem.PageSize - 1) / mem.PageSize)
}
