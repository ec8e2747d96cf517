package experiment

import (
	"perfiso/internal/core"
	"perfiso/internal/kernel"
	"perfiso/internal/machine"
	"perfiso/internal/scenario"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
	"perfiso/internal/workload"
)

// DiskPolicies is the §4.5 comparison order.
var DiskPolicies = []string{"Pos", "Iso", "PIso"}

// DiskRow is one row of Table 3 or Table 4: one scheduling policy's
// measurements for the two competing jobs.
type DiskRow struct {
	Policy string
	// RespA/RespB are the two jobs' response times (Pmk/Cpy in Table 3,
	// Small/Big in Table 4).
	RespA, RespB sim.Time
	// WaitA/WaitB are the mean per-request queue wait times.
	WaitA, WaitB sim.Time
	// AvgLatency is the mean positioning latency (seek plus rotational
	// delay) across all requests — the paper's "average disk latency",
	// which PIso keeps near Pos's value while Iso inflates it.
	AvgLatency sim.Time
	// AvgSeek is the mean seek component alone.
	AvgSeek sim.Time
}

// DiskResult carries one of the §4.5 tables.
type DiskResult struct {
	Meter
	Title          string
	LabelA, LabelB string
	Rows           []DiskRow
}

// RunTable3 executes the pmake-copy workload: SPU 1 runs a pmake job,
// SPU 2 copies a 20 MB file, both on one shared HP 97560 with cold
// caches, under each of the three disk scheduling policies.
func RunTable3() DiskResult {
	res := DiskResult{
		Title:  "Table 3: performance isolation on a disk-limited workload (pmake-copy)",
		LabelA: "Pmk", LabelB: "Cpy",
	}
	for _, pol := range DiskPolicies {
		res.add(pol, scenario.Table3(core.PIso, kernel.Options{DiskSched: pol, Profiled: true}))
	}
	return res
}

// RunTable4 executes the big-and-small-copy workload: SPU 1 copies a
// 500 KB file, SPU 2 a 5 MB file, on the same disk. Both streams are
// contiguous, so ignoring head position (Iso) costs real seek time —
// the case that motivates PIso's hybrid policy.
func RunTable4() DiskResult {
	res := DiskResult{
		Title:  "Table 4: considering both head position and fairness (big-and-small-copy)",
		LabelA: "Small", LabelB: "Big",
	}
	for _, pol := range DiskPolicies {
		res.add(pol, bigSmallCopy(kernel.Options{DiskSched: pol, Profiled: true}))
	}
	return res
}

// bigSmallCopy is the Table 4 workload: SPU "small" copies 500 KB and
// SPU "big" 5 MB on the disk-isolation machine's one disk. The small
// copy is built first but the big one starts first: the paper notes
// the larger copy "happening to issue requests to the disk earlier
// than the smaller copy" locks it out under Pos.
func bigSmallCopy(opts kernel.Options) scenario.Plan {
	small, big := workload.DefaultCopy(500*1024), workload.DefaultCopy(5*1024*1024)
	return scenario.Plan{
		Machine: machine.DiskIsolation(), Scheme: core.PIso, Options: opts,
		SPUs:  []scenario.SPU{{Name: "small"}, {Name: "big"}},
		Jobs:  []scenario.Job{{SPU: 0, Name: "small", Copy: &small}, {SPU: 1, Name: "big", Copy: &big}},
		Spawn: []int{1, 0},
	}
}

// add runs one policy's plan — job and SPU 0 are the table's A column,
// job and SPU 1 its B column — and appends its row.
func (r *DiskResult) add(policy string, p scenario.Plan) {
	run := scenario.Execute(p)
	r.observe(run.Kernel, policy)
	d := run.Kernel.Disk(0)
	row := DiskRow{
		Policy:     policy,
		RespA:      run.Procs[0].ResponseTime(),
		RespB:      run.Procs[1].ResponseTime(),
		AvgLatency: sim.FromSeconds(d.Total.Pos.Mean()),
		AvgSeek:    sim.FromSeconds(d.Total.Seek.Mean()),
	}
	if st := d.PerSPU[run.SPUs[0].ID()]; st != nil {
		row.WaitA = sim.FromSeconds(st.Wait.Mean())
	}
	if st := d.PerSPU[run.SPUs[1].ID()]; st != nil {
		row.WaitB = sim.FromSeconds(st.Wait.Mean())
	}
	r.Rows = append(r.Rows, row)
}

// Row returns the row for a policy, or nil.
func (r DiskResult) Row(policy string) *DiskRow {
	for i := range r.Rows {
		if r.Rows[i].Policy == policy {
			return &r.Rows[i]
		}
	}
	return nil
}

// Table renders the result in the paper's column layout.
func (r DiskResult) Table() *stats.Table {
	t := stats.NewTable(r.Title,
		"Conf",
		"Resp "+r.LabelA+" (s)", "Resp "+r.LabelB+" (s)",
		"Wait "+r.LabelA+" (ms)", "Wait "+r.LabelB+" (ms)",
		"Avg Latency (ms)", "Avg Seek (ms)")
	for _, row := range r.Rows {
		t.Addf(row.Policy,
			row.RespA.Seconds(), row.RespB.Seconds(),
			row.WaitA.Milliseconds(), row.WaitB.Milliseconds(),
			row.AvgLatency.Milliseconds(), row.AvgSeek.Milliseconds())
	}
	return t
}
