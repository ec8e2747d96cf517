// Pisosim runs a single workload/scheme combination on the simulated
// machine and prints per-job response times and machine statistics. The
// workloads come from the perfiso.Workloads registry.
//
// Usage:
//
//	pisosim -workload pmake8|cpu|mem|disk|tenants -scheme SMP|Quo|PIso [-disksched Pos|Iso|PIso]
//	pisosim -workload mem -out DIR       # write the run's artifacts (metrics, Chrome trace, pprof profile, spans) into DIR
//	pisosim -workload tenants -out DIR   # adds latency.jsonl: per-tenant tail latency and SLO attainment
//	pisosim -workload tenants -adaptive -out DIR   # closed-loop SLO entitlement control; adds controller.jsonl
//	pisosim -faults disk-fail:0:1s:2s:0.3,cpu-off:1:500ms:0s   # inject deterministic faults
//	pisosim -simobs simobs.jsonl         # simulator self-observability telemetry (event census, queue stats, host time)
//	pisosim -spec scenario.json          # declarative scenario, JSON result
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"perfiso"
	"perfiso/internal/artifact"
	"perfiso/internal/profile"
	"perfiso/internal/scenario"
	"perfiso/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, dispatches through the workload registry, and
// returns the process exit code. Split from main so tests can drive the
// full flag→lookup→report path in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pisosim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "pmake8", "one of: "+strings.Join(perfiso.WorkloadNames(), ", "))
	schemeName := fs.String("scheme", "PIso", "SMP, Quo, or PIso")
	diskSched := fs.String("disksched", "", "override disk policy: Pos, Iso, or PIso")
	unbalanced := fs.Bool("unbalanced", false, "use the unbalanced job distribution (pmake8, mem)")
	traceN := fs.Int("trace", 0, "dump the last N resource-management decisions")
	traceKind := fs.String("trace-kind", "", "restrict -trace output to these kinds (comma-separated: sched,mem,disk,fs,proc,policy,fault,audit)")
	traceSPU := fs.Int("trace-spu", -1, "restrict -trace output to events concerning this SPU id")
	timeline := fs.Bool("timeline", false, "render per-SPU usage sparklines and the sampled usage table")
	adaptive := fs.Bool("adaptive", false, "close the loop: retune SPU entitlements from SLO burn (admission control, retry budgets, disk breakers)")
	outDir := fs.String("out", "", "write the run's artifacts into this directory; turns on metrics and the profiler\n(metrics.jsonl, trace.json, profile.pb.gz, spans.jsonl; latency.jsonl when the workload tracks latency, controller.jsonl with -adaptive)")
	simobsPath := fs.String("simobs", "", "observe the simulator itself: write event-core telemetry (JSONL) to this file and print the event census and host-time report")
	faultSpec := fs.String("faults", "", "inject deterministic faults: kind:target:at:duration[:severity],...\n(kinds: disk-slow, disk-fail, cpu-slow, cpu-off, mem-loss; duration 0s = permanent)")
	specPath := fs.String("spec", "", "run a declarative JSON scenario and print a JSON result")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *specPath != "" {
		data, err := os.ReadFile(*specPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		spec, err := scenario.Parse(data)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		res, err := spec.Run()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintln(stdout, res.JSON())
		return 0
	}

	scheme, ok := parseScheme(*schemeName)
	if !ok {
		fmt.Fprintf(stderr, "unknown scheme %q\n", *schemeName)
		return 2
	}
	w, ok := perfiso.LookupWorkload(*workloadName)
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q; known: %s\n",
			*workloadName, strings.Join(perfiso.WorkloadNames(), ", "))
		return 2
	}

	kinds, err := trace.ParseKinds(*traceKind)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	spuFilter := ""
	if *traceSPU >= 0 {
		spuFilter = fmt.Sprintf("spu%d", *traceSPU)
	}

	opts := perfiso.Options{DiskSched: *diskSched, TraceCapacity: *traceN,
		Profiled: *outDir != "", SimObs: *simobsPath != ""}
	if *timeline || *outDir != "" {
		opts.MetricsPeriod = 100 * perfiso.Millisecond
	}
	if *adaptive {
		// The kernel brings the latency registry along: the windowed
		// SLO burn is the controller's only sensor.
		opts.Control = perfiso.ControlConfig{Enabled: true}
	}
	if *faultSpec != "" {
		plan, err := perfiso.ParseFaults(*faultSpec)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		opts.Faults = plan
	}

	sys := w.Build(scheme, opts, *unbalanced)
	sys.Run()
	for _, j := range sys.Jobs() {
		fmt.Fprintf(stdout, "%-12s %.2fs\n", j.Name, j.ResponseTime().Seconds())
	}
	if w.Name == "disk" {
		_, wait, pos := sys.DiskStats(0)
		fmt.Fprintf(stdout, "disk: mean wait %.1fms, mean positioning %.2fms\n", wait*1000, pos*1000)
	}
	report(sys, stdout, *timeline, kinds, spuFilter)
	if *outDir != "" {
		if err := sys.WriteArtifacts(*outDir); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "\nartifacts written to %s\n", *outDir)
	}
	if *simobsPath != "" {
		rep := sys.Kernel().SimObsReport(w.Name)
		if err := artifact.WriteFile(*simobsPath, rep.WriteJSONL); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "\n%s\nsimulator telemetry written to %s\n", rep, *simobsPath)
	}
	return 0
}

func parseScheme(name string) (perfiso.Scheme, bool) {
	switch name {
	case "SMP":
		return perfiso.SMP, true
	case "Quo":
		return perfiso.Quo, true
	case "PIso":
		return perfiso.PIso, true
	}
	return perfiso.SMP, false
}

func report(sys *perfiso.System, w io.Writer, timeline bool, kinds []trace.Kind, spu string) {
	rep := sys.Report()
	fmt.Fprintf(w, "\nmakespan %.2fs  cpu-util %.0f%%  disk-reqs %d  reclaims %d  dirty-writes %d\n",
		rep.Makespan.Seconds(), 100*rep.CPUUtilization, rep.DiskRequests,
		rep.PageReclaims, rep.DirtyWrites)
	if in := sys.Kernel().Injector(); in != nil {
		k := sys.Kernel()
		var failures int64
		for i := 0; i < k.NumDisks(); i++ {
			failures += k.Disk(i).Total.Failures
		}
		fmt.Fprintf(w, "faults: injected %d, healed %d; disk failures %d, fs retries %d, pageout retries %d\n",
			in.Stat.Injected, in.Stat.Reverted, failures,
			k.FS().Stat.Retries, k.Memory().Stat.PageoutRetries)
	}
	if timeline {
		fmt.Fprintf(w, "\nper-SPU usage over time (CPUs / MB):\n%s", sys.Kernel().Timeline().Render(64))
	}
	if tbl := sys.Kernel().UsageTable(); tbl != nil {
		fmt.Fprintf(w, "\n%s", tbl)
	}
	if tbl := sys.Kernel().LatencyTable(); tbl != nil {
		fmt.Fprintf(w, "\n%s", tbl)
	}
	if c := sys.Kernel().Controller(); c != nil {
		st := c.Stat
		fmt.Fprintf(w, "\ncontroller: %d ticks, %d retunes (%d boosts, %d releases), %d shed, %d breaker trips\n",
			st.Ticks, st.Retunes, st.Boosts, st.Releases, st.Shed, st.Trips)
	}
	if p := sys.Kernel().Profile(); p != nil {
		printAttribution(p, w)
	}
	if locks := sys.Kernel().Locks(); locks != nil {
		if s := locks.String(); strings.Count(s, "\n") > 1 { // header plus rows
			fmt.Fprintf(w, "\nkernel locks:\n%s", s)
		}
	}
	if tr := sys.Kernel().Tracer(); tr != nil && tr.Len() > 0 {
		fmt.Fprintf(w, "\nlast %d resource-management decisions:\n", tr.Len())
		tr.DumpFiltered(w, kinds, spu)
	}
}

// printAttribution renders the profiler's aggregate buckets and the
// cross-SPU interference matrix: who stole how much simulated time from
// whom, on which resource.
func printAttribution(p *profile.Profiler, w io.Writer) {
	totals := p.Totals()
	if len(totals) > 0 {
		fmt.Fprintf(w, "\nsimulated-time attribution (per SPU, per state):\n")
		for _, t := range totals {
			fmt.Fprintf(w, "  %-6s %-12s %12s\n", profile.SPUName(t.SPU), t.State, t.Time)
		}
	}
	theft := p.Interference()
	if len(theft) == 0 {
		fmt.Fprintf(w, "\ninterference matrix: empty (no cross-SPU time theft)\n")
		return
	}
	fmt.Fprintf(w, "\ninterference matrix (victim <- culprit, resource, stolen sim-time):\n")
	for _, t := range theft {
		fmt.Fprintf(w, "  %-6s <- %-6s %-8s %12s\n",
			profile.SPUName(t.Victim), profile.SPUName(t.Culprit), t.Resource, t.Stolen)
	}
}
