// Command benchmark measures perfiso end to end and layer by layer on
// four scaled isolation workloads.
//
// A timed pass runs each workload's lit configuration (profiler,
// fail-fast auditor and metrics on, as the registry runs) in
// interleaved rounds and reports set-up, run and export host time,
// allocation and live heap. A traced pass re-runs each workload under
// the engine observer and with each observer turned off, reads every
// layer's exported statistics, and times layer probes. Both passes
// check the simulated results: every rep and every observer variant
// must produce the same digest, the auditor must find nothing, every
// batch job must finish, and a registry-size reference rep must match
// the digest recorded in reference.go.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1]
//	                      [-json PATH] [-spans PATH]
//	bash benchmark/run.sh -compare A.json B.json
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics by name with their units.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, sc := range scenarios {
		names = append(names, sc.name)
	}
	fl := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workloadName := fl.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fl.Uint64("seed", 1, "input seed: kernel file placement and tenant arrival streams")
	seconds := fl.Float64("seconds", 25, "host seconds each pass measures, after its minimum rounds")
	trace := fl.Int("trace", -1, "0 runs only the timed pass (end-to-end metrics), 1 only the traced pass (per-layer metrics); unset runs both")
	jsonPath := fl.String("json", "", "write a manifest and one JSON record per (workload, metric) to this file")
	spansPath := fl.String("spans", "", "write the traced pass's spans as JSONL to this file")
	compare := fl.Bool("compare", false, "compare two -json files given as arguments: -compare A.json B.json")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareFiles(fl.Args(), stdout, stderr)
	}
	if fl.NArg() > 0 || *trace < -1 || *trace > 1 || *seconds <= 0 {
		fl.Usage()
		return 2
	}
	scs := scenarios
	if *workloadName != "all" {
		sc := findScenario(*workloadName)
		if sc == nil {
			fmt.Fprintf(stderr, "unknown workload %q; choose from %s or all\n", *workloadName, strings.Join(names, ", "))
			return 2
		}
		scs = []*scenario{sc}
	}

	// The simulator runs on one goroutine. With a second P the concurrent
	// collector runs on the other CPU, and on a 2-CPU machine that made
	// set-up and export times two to three times noisier from run to run
	// (benchmark/README.md, "Noise protocol").
	runtime.GOMAXPROCS(1)
	b := newBench(*seed, time.Duration(*seconds*float64(time.Second)), stderr)
	recs := b.execute(scs, *trace)
	printTable(stdout, recs)
	if *jsonPath != "" {
		if err := writeRecords(*jsonPath, b.manifest(scs), recs); err != nil {
			b.problem("%v", err)
		}
	}
	if *spansPath != "" && b.spans != nil {
		if err := b.spans.write(*spansPath); err != nil {
			b.problem("%v", err)
		}
	}
	for _, p := range b.problems {
		fmt.Fprintln(stderr, "FAIL:", p)
	}
	line := b.result(recs, len(scs) > 1)
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !line.Correct {
		return 1
	}
	return 0
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// result builds the result line; with several workloads each metric
// is keyed "workload/metric".
func (b *bench) result(recs []record, prefixed bool) resultLine {
	line := resultLine{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]valueUnit{}}
	for _, r := range recs {
		key := r.Metric
		if prefixed {
			key = r.Workload + "/" + r.Metric
		}
		line.Metrics[key] = valueUnit{r.Value, r.Unit}
	}
	return line
}

// execute runs the timed pass unless trace is 1 and the traced pass
// unless trace is 0, then summarizes the metrics of the passes run.
func (b *bench) execute(scs []*scenario, trace int) []record {
	var defs []metricDef
	if trace != 1 {
		b.timedPass(scs)
		defs = append(defs, endToEnd...)
	}
	if trace != 0 {
		b.tracedPass(scs)
		defs = append(defs, perLayer...)
	}
	return b.records(scs, defs)
}

// minTimedRounds is the fewest timed rounds a run makes, however short
// its time budget, so every timing is a median of at least ten reps.
const minTimedRounds = 10

// probeReps is how many times each layer probe runs; it reports the
// median.
const probeReps = 11

// bench is one invocation's state: its inputs, the samples gathered,
// and every check that failed.
type bench struct {
	seed    uint64
	seconds time.Duration
	// scale overrides every scenario's full scale when positive; the
	// package test runs the registry size (1).
	scale int
	log   io.Writer
	spans *spanLog

	attempted, failed int
	problems          []string
	samples           map[string]map[string][]float64 // workload -> metric -> samples
	sizes             map[string]size
}

// size records how big a workload ran, for the manifest.
type size struct {
	Scale      int     `json:"scale"`
	Events     float64 `json:"sim_events"`
	SimSeconds float64 `json:"sim_seconds"`
}

func newBench(seed uint64, seconds time.Duration, log io.Writer) *bench {
	return &bench{
		seed: seed, seconds: seconds, log: log,
		samples: map[string]map[string][]float64{},
		sizes:   map[string]size{},
	}
}

func (b *bench) scaleOf(sc *scenario) int {
	if b.scale > 0 {
		return b.scale
	}
	return sc.full
}

func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

func (b *bench) add(workload, metric string, v float64) {
	if b.samples[workload] == nil {
		b.samples[workload] = map[string][]float64{}
	}
	b.samples[workload][metric] = append(b.samples[workload][metric], v)
}

// instances is how many input instances a run draws from its seed.
// Round r runs instance r mod instances, so a run's medians mix several
// instances and depend less on which one a seed happens to draw (file
// placement moves disk-copy's queue depth, and with it its allocation,
// by about a tenth from seed to seed).
const instances = 4

// instanceSeed is the seed of the instance round r runs.
func (b *bench) instanceSeed(round int) uint64 {
	return b.seed*instances + uint64(round%instances)
}

// rep runs one rep of the instance round selects and counts it; a
// failed rep is reported and nil.
func (b *bench) rep(sc *scenario, v variant, round int, runID string) *rep {
	b.attempted++
	r, err := runRep(sc, b.instanceSeed(round), b.scaleOf(sc), v, b.spans, runID)
	if err != nil {
		b.failed++
		b.problem("%v", err)
		return nil
	}
	return r
}

// check compares a rep's simulated results with the first rep of the
// same workload instance; a mismatch or an auditor violation fails the
// rep.
func (b *bench) check(sc *scenario, v variant, r *rep, want map[string]string) bool {
	key := fmt.Sprintf("%s/%d", sc.name, r.seed)
	switch {
	case r.layers["invariant.violations"] != 0:
		b.problem("%s/%s: %v invariant violations", sc.name, v.name, r.layers["invariant.violations"])
	case want[key] == "":
		want[key] = r.digest
		if _, ok := b.sizes[sc.name]; !ok {
			b.sizes[sc.name] = size{Scale: b.scaleOf(sc), Events: r.layers["sim.events"], SimSeconds: r.simEnd.Seconds()}
		}
		return true
	case r.digest != want[key]:
		b.problem("%s/%s seed %d: simulated results differ from the first rep:\n%s\nwant:\n%s", sc.name, v.name, r.seed, r.digest, want[key])
	default:
		return true
	}
	b.failed++
	return false
}

// reference runs the workload at registry size on seed 1 and compares
// its digest with the one recorded in reference.go, so a change that
// alters the simulated model fails the benchmark whatever -seed says.
func (b *bench) reference(sc *scenario) {
	b.attempted++
	r, err := runRep(sc, 1, 1, lit, nil, "")
	if err == nil && digestHash(r.digest) != referenceDigests[sc.name] {
		err = fmt.Errorf("%s: reference digest %s, want %s; results:\n%s", sc.name, digestHash(r.digest), referenceDigests[sc.name], r.digest)
	}
	if err != nil {
		b.failed++
		b.problem("reference: %v", err)
	}
}

// rounds calls body for rounds 0, 1, ... until at least min rounds
// have run and another round as long as the last would overrun the
// pass's time.
func (b *bench) rounds(min int, body func(round int)) {
	start := time.Now()
	var last time.Duration
	for i := 0; i < min || time.Since(start)+last <= b.seconds; i++ {
		t := time.Now()
		body(i)
		last = time.Since(t)
	}
}

// timedPass measures the end-to-end metrics: after a reference check
// and an untimed warm-up rep per workload, workloads run round-robin in
// their lit configuration, with tracing off.
func (b *bench) timedPass(scs []*scenario) {
	want := map[string]string{}
	for _, sc := range scs {
		fmt.Fprintf(b.log, "timed: %s warm-up\n", sc.name)
		b.reference(sc)
		if r := b.rep(sc, lit, 0, ""); r != nil {
			b.check(sc, lit, r, want)
		}
	}
	b.rounds(minTimedRounds, func(round int) {
		for _, sc := range scs {
			r := b.rep(sc, lit, round, "")
			if r == nil || !b.check(sc, lit, r, want) {
				continue
			}
			b.add(sc.name, "setup_s", r.setup().Seconds())
			b.add(sc.name, "run_s", r.run.Seconds())
			b.add(sc.name, "export_s", r.export().Seconds())
			b.add(sc.name, "allocs", float64(r.allocs))
			b.add(sc.name, "alloc_mb", float64(r.allocBytes)/(1<<20))
			b.add(sc.name, "live_heap_mb", float64(r.liveHeap)/(1<<20))
		}
		fmt.Fprintf(b.log, "timed: round %d done\n", round+1)
	})
}

// tracedVariants are the configurations of one traced round: the
// untraced lit rep the exact counters and overheads are read from, the
// traced rep the host-time split is read from, and the observer
// toggles.
var tracedVariants = []variant{lit, traced, profileOff, auditOff, metricsOff, dark}

// costOf names the toggle whose run time, against lit, prices each
// observer.
var costOf = []struct{ metric, variant string }{
	{"profile.cost_pct", profileOff.name},
	{"invariant.cost_pct", auditOff.name},
	{"metrics.cost_pct", metricsOff.name},
	{"observers.cost_pct", dark.name},
}

// tracedPass runs the layer probes, then measures the per-layer
// metrics. Every variant must reproduce the lit digest. All of it runs
// the seed's first instance, so the simulated counters are exact for a
// seed however many rounds fit in the time.
func (b *bench) tracedPass(scs []*scenario) {
	// The probes go first, while the heap is small: after tenants-slo's
	// 100 MB heap the same disk probe measured almost twice as slow.
	b.probes(scs)
	b.spans = newSpanLog()
	want := map[string]string{}
	for _, sc := range scs {
		fmt.Fprintf(b.log, "traced: %s warm-up\n", sc.name)
		b.reference(sc)
		if r := b.rep(sc, lit, 0, sc.name+"/lit/warm-up"); r != nil {
			b.check(sc, lit, r, want)
		}
	}
	b.rounds(1, func(round int) {
		for _, sc := range scs {
			runs := map[string]*rep{}
			for _, v := range tracedVariants {
				r := b.rep(sc, v, 0, fmt.Sprintf("%s/%s/%d", sc.name, v.name, round+1))
				if r != nil && b.check(sc, v, r, want) {
					runs[v.name] = r
				}
			}
			b.addLayers(sc.name, runs)
		}
		fmt.Fprintf(b.log, "traced: round %d done\n", round+1)
	})
}

// addLayers derives one traced round's per-layer samples.
func (b *bench) addLayers(workload string, runs map[string]*rep) {
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	if l := runs[lit.name]; l != nil {
		for name, v := range l.layers {
			b.add(workload, name, v)
		}
		b.add(workload, "sim.ns_per_event", float64(l.run)/l.layers["sim.events"])
		for _, c := range costOf {
			if off := runs[c.variant]; off != nil {
				b.add(workload, c.metric, 100*float64(l.run-off.run)/float64(l.run))
			}
		}
		if t := runs[traced.name]; t != nil {
			b.add(workload, "trace_overhead_pct", 100*float64(t.run-l.run)/float64(l.run))
		}
	}
	t := runs[traced.name]
	if t == nil {
		return
	}
	b.add(workload, "kernel.new_ms", ms(t.newKernel))
	b.add(workload, "kernel.boot_ms", ms(t.boot))
	b.add(workload, "workload.build_ms", ms(t.build))
	for _, e := range []string{"metrics", "profile", "latency", "control"} {
		b.add(workload, e+".export_ms", ms(t.exports[e]))
	}
	var billed int64
	for _, ns := range t.hostNS {
		billed += ns
	}
	for _, m := range modules {
		b.add(workload, m+".host_ms", float64(t.hostNS[m])/1e6)
	}
	b.add(workload, "run.self_ms", ms(t.run)-float64(billed)/1e6)
}

// probes times each layer probe probeReps times. The probes do not
// depend on the workload, so every selected workload reports them.
func (b *bench) probes(scs []*scenario) {
	for _, p := range []struct {
		metric string
		fn     func() (float64, error)
	}{
		{"disk.pick_ns_q64", func() (float64, error) { return probeDiskPick(64, b.seed) }},
		{"disk.pick_ns_q1024", func() (float64, error) { return probeDiskPick(1024, b.seed) }},
		{"mem.reclaim_ns", func() (float64, error) { return probeMemReclaim(4096) }},
		{"sim.event_ns", func() (float64, error) { return probeEvent(1 << 16) }},
	} {
		for i := 0; i < probeReps; i++ {
			b.attempted++
			runtime.GC()
			v, err := p.fn()
			if err != nil {
				b.failed++
				b.problem("%s: %v", p.metric, err)
				continue
			}
			for _, sc := range scs {
				b.add(sc.name, p.metric, v)
			}
		}
	}
}

// record is one (workload, metric) result: the median of its samples
// with quartiles, and the bound of an end-to-end metric.
type record struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	Better   string    `json:"better"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	N        int       `json:"n"`
	Bound    *float64  `json:"bound,omitempty"`
	Exact    bool      `json:"exact,omitempty"`
	Host     bool      `json:"host,omitempty"`
	Values   []float64 `json:"values"`
}

// records summarizes every metric of defs for every workload; a metric
// with no samples is a failed check.
func (b *bench) records(scs []*scenario, defs []metricDef) []record {
	var out []record
	for _, sc := range scs {
		for _, d := range defs {
			vs := b.samples[sc.name][d.name]
			if len(vs) == 0 {
				b.problem("%s: no samples of %s", sc.name, d.name)
				continue
			}
			s := summarize(vs)
			r := record{
				Workload: sc.name, Metric: d.name, Value: s.median, Unit: d.unit, Better: d.better,
				Q1: s.q1, Q3: s.q3, N: s.n, Exact: d.exact, Host: d.host, Values: vs,
			}
			if d.bound > 0 {
				r.Bound = &d.bound
			}
			out = append(out, r)
		}
	}
	return out
}

// manifest describes the invocation so any number can be traced to
// what produced it.
type manifest struct {
	Type       string          `json:"type"`
	Commit     string          `json:"commit"`
	Seed       uint64          `json:"seed"`
	GoVersion  string          `json:"go_version"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	NumCPU     int             `json:"nproc"`
	Seconds    float64         `json:"seconds"`
	Attempted  int             `json:"attempted"`
	Failed     int             `json:"failed"`
	Workloads  map[string]size `json:"workloads"`
}

// commit is the source revision, set at link time by run.sh.
var commit = "unknown"

func (b *bench) manifest(scs []*scenario) manifest {
	m := manifest{
		Type: "manifest", Commit: commit, Seed: b.seed, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Seconds: b.seconds.Seconds(),
		Attempted: b.attempted, Failed: b.failed, Workloads: map[string]size{},
	}
	for _, sc := range scs {
		m.Workloads[sc.name] = b.sizes[sc.name]
	}
	return m
}
