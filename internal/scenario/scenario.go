// Package scenario is the one boot path of the simulator: a Plan
// describes a run as data (machine, scheme, kernel options, SPUs, jobs)
// and Boot, Start and Finish execute it. The experiment registry, the
// soak harness, the pisosim workloads and the declarative JSON specs
// (pisosim -spec) all build Plans.
//
// A JSON spec describes the machine, the allocation scheme, the SPUs
// and their workloads; it decodes into a Plan, and the result reports
// per-job response times.
//
// Example spec:
//
//	{
//	  "machine": "memory-isolation",
//	  "scheme": "PIso",
//	  "spus": [
//	    {"name": "alice", "weight": 1, "disk": 0},
//	    {"name": "bob", "weight": 2, "disk": 1}
//	  ],
//	  "jobs": [
//	    {"type": "pmake", "spu": "alice", "name": "build"},
//	    {"type": "copy", "spu": "bob", "name": "backup", "bytes": 5242880}
//	  ]
//	}
package scenario

import (
	"encoding/json"
	"fmt"

	"perfiso/internal/core"
	"perfiso/internal/fs"
	"perfiso/internal/kernel"
	"perfiso/internal/machine"
	"perfiso/internal/sim"
	"perfiso/internal/workload"
)

// Spec is the top-level scenario document.
type Spec struct {
	// Machine names a Table 1 configuration: "pmake8", "cpu-isolation",
	// "memory-isolation", or "disk-isolation".
	Machine string `json:"machine"`
	// Scheme is "SMP", "Quo", or "PIso".
	Scheme string `json:"scheme"`
	// DiskSched optionally overrides the disk policy ("Pos"/"Iso"/"PIso").
	DiskSched string `json:"disk_sched,omitempty"`
	// IPIRevoke enables immediate CPU revocation.
	IPIRevoke bool `json:"ipi_revoke,omitempty"`
	// Seed overrides the deterministic seed.
	Seed uint64 `json:"seed,omitempty"`

	SPUs []SPUSpec `json:"spus"`
	Jobs []JobSpec `json:"jobs"`
}

// SPUSpec declares one SPU.
type SPUSpec struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`         // 0 means 1
	Disk   *int    `json:"disk,omitempty"` // affinity, a disk of the machine; default round-robin
}

// JobSpec declares one workload instance.
type JobSpec struct {
	// Type is one of "pmake", "copy", "ocean", "flashlite", "vcs",
	// "server", "compute".
	Type string `json:"type"`
	// SPU names the owning SPU (must appear in SPUs).
	SPU  string `json:"spu"`
	Name string `json:"name"`

	// Copy: file size in bytes.
	Bytes int64 `json:"bytes,omitempty"`
	// Pmake: parallelism override (0 keeps the default shape).
	Parallel int `json:"parallel,omitempty"`
	// Compute/flashlite/vcs: total CPU milliseconds (0 keeps default).
	ComputeMS int64 `json:"compute_ms,omitempty"`
	// Working-set pages override (pmake/ocean/compute).
	WSSPages int `json:"wss_pages,omitempty"`
	// Server: request count and interarrival override.
	Requests       int   `json:"requests,omitempty"`
	InterarrivalMS int64 `json:"interarrival_ms,omitempty"`
}

// JobResult is one finished job's outcome.
type JobResult struct {
	Name     string  `json:"name"`
	SPU      string  `json:"spu"`
	Type     string  `json:"type"`
	RespSecs float64 `json:"response_seconds"`
	// MaxLatencySecs is set for server jobs (worst request).
	MaxLatencySecs float64 `json:"max_latency_seconds,omitempty"`
}

// Result is the scenario outcome.
type Result struct {
	MakespanSecs   float64     `json:"makespan_seconds"`
	CPUUtilization float64     `json:"cpu_utilization"`
	Jobs           []JobResult `json:"jobs"`
}

// Parse decodes and validates a spec document.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

func (s *Spec) validate() error {
	cfg, err := s.machine()
	if err != nil {
		return err
	}
	if _, err := s.scheme(); err != nil {
		return err
	}
	if len(s.SPUs) == 0 {
		return fmt.Errorf("scenario: no SPUs declared")
	}
	// disks maps each SPU to the disk its files go on: its declared
	// affinity, or the kernel's round-robin default in declaration order.
	disks := make(map[string]int)
	for i, sp := range s.SPUs {
		if sp.Name == "" {
			return fmt.Errorf("scenario: SPU with empty name")
		}
		if _, dup := disks[sp.Name]; dup {
			return fmt.Errorf("scenario: duplicate SPU %q", sp.Name)
		}
		d := i % len(cfg.Disks)
		if sp.Disk != nil {
			if n := len(cfg.Disks); *sp.Disk < 0 || *sp.Disk >= n {
				unit := "disks"
				if n == 1 {
					unit = "disk"
				}
				return fmt.Errorf("scenario: SPU %q disk %d out of range (%s has %d %s)",
					sp.Name, *sp.Disk, cfg.Name, n, unit)
			}
			d = *sp.Disk
		}
		disks[sp.Name] = d
	}
	if len(s.Jobs) == 0 {
		return fmt.Errorf("scenario: no jobs declared")
	}
	for _, j := range s.Jobs {
		d, ok := disks[j.SPU]
		if !ok {
			return fmt.Errorf("scenario: job %q references unknown SPU %q", j.Name, j.SPU)
		}
		switch j.Type {
		case "pmake", "copy", "ocean", "flashlite", "vcs", "server", "compute":
		default:
			return fmt.Errorf("scenario: job %q has unknown type %q", j.Name, j.Type)
		}
		if j.Type == "copy" && j.Bytes <= 0 {
			return fmt.Errorf("scenario: copy job %q needs bytes > 0", j.Name)
		}
		if max := fs.MaxFileBytes(cfg.Disks[d]); j.Type == "copy" && j.Bytes > max {
			return fmt.Errorf("scenario: copy job %q of %d bytes does not fit on disk %d of %s (at most %d bytes per file)",
				j.Name, j.Bytes, d, cfg.Name, max)
		}
	}
	return nil
}

func (s *Spec) machine() (machine.Config, error) {
	switch s.Machine {
	case "pmake8":
		return machine.Pmake8(), nil
	case "cpu-isolation":
		return machine.CPUIsolation(), nil
	case "memory-isolation", "":
		return machine.MemoryIsolation(), nil
	case "disk-isolation":
		return machine.DiskIsolation(), nil
	default:
		return machine.Config{}, fmt.Errorf("scenario: unknown machine %q", s.Machine)
	}
}

func (s *Spec) scheme() (core.Scheme, error) {
	switch s.Scheme {
	case "SMP":
		return core.SMP, nil
	case "Quo":
		return core.Quo, nil
	case "PIso", "":
		return core.PIso, nil
	default:
		return 0, fmt.Errorf("scenario: unknown scheme %q", s.Scheme)
	}
}

// Run executes the scenario to completion.
func (s *Spec) Run() (*Result, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	r := Execute(s.plan())
	res := &Result{
		MakespanSecs:   r.End.Seconds(),
		CPUUtilization: r.Kernel.Scheduler().Utilization(),
	}
	for i, j := range s.Jobs {
		jr := JobResult{
			Name:     j.Name,
			SPU:      j.SPU,
			Type:     j.Type,
			RespSecs: r.Procs[i].ResponseTime().Seconds(),
		}
		if srv := r.Servers[i]; srv != nil {
			jr.MaxLatencySecs = srv.MaxLatency(r.End).Seconds()
		}
		res.Jobs = append(res.Jobs, jr)
	}
	return res, nil
}

// plan decodes a validated spec into a Plan.
func (s *Spec) plan() Plan {
	cfg, _ := s.machine()
	scheme, _ := s.scheme()
	p := Plan{Machine: cfg, Scheme: scheme, Options: kernel.Options{
		DiskSched: s.DiskSched,
		IPIRevoke: s.IPIRevoke,
		Seed:      s.Seed,
	}}
	spus := make(map[string]int)
	for i, sp := range s.SPUs {
		spus[sp.Name] = i
		p.SPUs = append(p.SPUs, SPU{Name: sp.Name, Weight: sp.Weight, Disk: sp.Disk})
	}
	for _, j := range s.Jobs {
		p.Jobs = append(p.Jobs, j.job(spus[j.SPU]))
	}
	return p
}

// job decodes one job spec, applying its overrides to the type's
// default parameters.
func (j JobSpec) job(spu int) Job {
	out := Job{SPU: spu, Name: j.Name}
	switch j.Type {
	case "pmake":
		params := workload.DefaultPmake()
		if j.Parallel > 0 {
			params.Parallel = j.Parallel
		}
		if j.WSSPages > 0 {
			params.WSSPages = j.WSSPages
		}
		out.Pmake = &params
	case "copy":
		params := workload.DefaultCopy(j.Bytes)
		out.Copy = &params
	case "ocean":
		params := workload.DefaultOcean()
		if j.WSSPages > 0 {
			params.WSSPages = j.WSSPages
		}
		out.Ocean = &params
	case "flashlite", "vcs", "compute":
		var params workload.ComputeParams
		switch j.Type {
		case "flashlite":
			params = workload.DefaultFlashlite()
		case "vcs":
			params = workload.DefaultVCS()
		default:
			params = workload.ComputeParams{Total: sim.Second, Chunk: 100 * sim.Millisecond, WSSPages: 100}
		}
		if j.ComputeMS > 0 {
			params.Total = sim.Time(j.ComputeMS) * sim.Millisecond
		}
		if j.WSSPages > 0 {
			params.WSSPages = j.WSSPages
		}
		out.Compute = &params
	case "server":
		params := workload.DefaultServer()
		if j.Requests > 0 {
			params.Requests = j.Requests
		}
		if j.InterarrivalMS > 0 {
			params.Interarrival = sim.Time(j.InterarrivalMS) * sim.Millisecond
		}
		out.Server = &params
	}
	return out
}

// JSON renders the result as indented JSON.
func (r *Result) JSON() string {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err) // Result contains only marshalable fields
	}
	return string(b)
}
