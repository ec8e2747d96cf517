// Pisobench regenerates every table and figure of the paper's
// evaluation (§4) plus the ablation studies, printing paper-style text
// tables (or Markdown with -markdown). Experiments come from the
// registry in internal/experiment and run across a bounded worker pool
// (-parallel); output order is always the registry order, so parallel
// runs print byte-identical tables. With -short it skips the ablations;
// -out DIR writes the run's artifacts: bench.json, a machine-readable
// benchmark report, and the per-experiment metrics, attribution, latency
// and controller JSONL files (deterministic at any -parallel level).
// -eventq flips every engine the run builds onto the binary-heap
// fallback for differential testing.
//
// The simulator's own speed is measured by the benchmark module, not
// here: bash benchmark/run.sh, then bash benchmark/run.sh -compare.
//
// Usage:
//
//	pisobench [-short] [-markdown] [-only ID] [-parallel N] [-out DIR] [-eventq calendar|heap]
//	pisobench -diff OLD.json NEW.json
//	pisobench -soak [-soak-runs N] [-soak-seed S] [-soak-case K] [-soak-faults SPEC]
//	pisobench -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"perfiso/internal/artifact"
	"perfiso/internal/experiment"
	"perfiso/internal/fault"
	"perfiso/internal/sim"
	"perfiso/internal/soak"
	"perfiso/internal/stats"
)

// config holds the parsed flag values so the dispatch logic is testable
// without re-executing the binary.
type config struct {
	short      bool
	markdown   bool
	compare    bool
	list       bool
	only       string
	parallel   int
	outDir     string
	eventq     string
	diff       bool
	diffArgs   []string
	soak       bool
	soakRuns   int
	soakSeed   uint64
	soakCase   int
	soakFaults string
}

func main() {
	var cfg config
	flag.BoolVar(&cfg.short, "short", false, "skip the ablation studies")
	flag.StringVar(&cfg.only, "only", "", "run a single experiment id or alias (see -list)")
	flag.BoolVar(&cfg.markdown, "markdown", false, "emit GitHub-flavored Markdown tables")
	flag.BoolVar(&cfg.compare, "compare", false, "print only the paper-vs-measured comparison")
	flag.BoolVar(&cfg.list, "list", false, "list registered experiment ids and exit")
	flag.IntVar(&cfg.parallel, "parallel", runtime.GOMAXPROCS(0), "experiments to run concurrently")
	flag.StringVar(&cfg.outDir, "out", "", "write the run's artifacts into this directory: bench.json (machine-readable report) and the\nper-experiment metrics.jsonl, attribution.jsonl, latency.jsonl and controller.jsonl")
	flag.BoolVar(&cfg.diff, "diff", false, "compare two pisobench JSON reports: pisobench -diff old.json new.json")
	flag.StringVar(&cfg.eventq, "eventq", "", "event queue implementation: calendar (default) or heap")
	flag.BoolVar(&cfg.soak, "soak", false, "run the chaos-soak harness instead of the evaluation suite")
	flag.IntVar(&cfg.soakRuns, "soak-runs", 16, "soak: number of generated cases to run")
	flag.Uint64Var(&cfg.soakSeed, "soak-seed", 1, "soak: sweep seed; every case derives from it deterministically")
	flag.IntVar(&cfg.soakCase, "soak-case", -1, "soak: replay a single case index instead of sweeping")
	flag.StringVar(&cfg.soakFaults, "soak-faults", "", "soak: override the replayed case's fault schedule (repro spec)")
	flag.Parse()
	cfg.diffArgs = flag.Args()
	os.Exit(run(cfg, os.Stdout, os.Stderr))
}

// runSoak dispatches the -soak mode: a seeded sweep, or — with
// -soak-case — a single-case replay, optionally under the minimized
// fault schedule a previous sweep printed.
func runSoak(cfg config, stdout, stderr io.Writer) int {
	if cfg.soakCase >= 0 {
		c := soak.NewCase(cfg.soakSeed, cfg.soakCase)
		if cfg.soakFaults != "" {
			plan, err := fault.ParsePlan(cfg.soakFaults)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			c = c.WithFaults(plan)
		}
		if soak.RunOne(stdout, c) {
			return 1
		}
		return 0
	}
	if cfg.soakFaults != "" {
		fmt.Fprintln(stderr, "-soak-faults needs -soak-case to name the case it replays")
		return 2
	}
	if failures := soak.Sweep(stdout, cfg.soakSeed, cfg.soakRuns); failures > 0 {
		fmt.Fprintf(stderr, "soak: %d of %d cases failed\n", failures, cfg.soakRuns)
		return 1
	}
	fmt.Fprintf(stderr, "soak: %d cases clean (seed %d)\n", cfg.soakRuns, cfg.soakSeed)
	return 0
}

// runDiff dispatches the -diff mode: compare two pisobench JSON
// reports and print what moved. Report-only: any readable pair exits 0.
func runDiff(cfg config, stdout, stderr io.Writer) int {
	if len(cfg.diffArgs) != 2 {
		fmt.Fprintln(stderr, "usage: pisobench -diff OLD.json NEW.json")
		return 2
	}
	oldData, err := os.ReadFile(cfg.diffArgs[0])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	newData, err := os.ReadFile(cfg.diffArgs[1])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	out, err := experiment.Diff(oldData, newData, cfg.diffArgs[0], cfg.diffArgs[1])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintln(stdout, out)
	return 0
}

// run executes one pisobench invocation, writing tables to stdout and
// diagnostics to stderr, and returns the process exit code.
func run(cfg config, stdout, stderr io.Writer) int {
	show := func(t *stats.Table) {
		if cfg.markdown {
			fmt.Fprintln(stdout, t.Markdown())
		} else {
			fmt.Fprintln(stdout, t)
		}
	}

	if kind, err := sim.ParseQueueKind(cfg.eventq); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	} else {
		sim.SetDefaultQueue(kind)
	}

	if cfg.soak {
		return runSoak(cfg, stdout, stderr)
	}
	if cfg.diff {
		return runDiff(cfg, stdout, stderr)
	}
	if cfg.compare {
		show(experiment.RunComparison().Table())
		return 0
	}
	if cfg.list {
		for _, s := range experiment.Registry() {
			alias := ""
			if len(s.Aliases) > 0 {
				alias = " (alias " + strings.Join(s.Aliases, ", ") + ")"
			}
			fmt.Fprintf(stdout, "%-16s %s%s\n", s.ID, s.Title, alias)
		}
		return 0
	}

	specs := experiment.Filter(experiment.Registry(), cfg.only, cfg.short)
	if len(specs) == 0 {
		fmt.Fprintf(stderr, "unknown experiment %q; known ids: %s\n",
			cfg.only, strings.Join(experiment.IDs(), ", "))
		return 2
	}

	if !cfg.markdown {
		printHeader(stdout)
	}

	start := time.Now()
	results := experiment.RunAll(specs, cfg.parallel)
	wall := time.Since(start)

	failed := 0
	for _, r := range results {
		if r.Err != nil {
			// The suite keeps going past a dead experiment; report it
			// loudly with a focused rerun and fail the invocation at the
			// end, after every survivor has printed.
			failed++
			fmt.Fprintf(stderr, "FAILED %s: %v\n  rerun just this one: pisobench -only %s\n",
				r.Spec.ID, r.Err, r.Spec.ID)
			continue
		}
		for _, sec := range r.Output.Sections {
			// A multi-section spec matched via an alias prints only the
			// section that alias names (-only fig3 skips fig2's table).
			// Single-section specs print their one table under any alias.
			if cfg.only != "" && len(r.Output.Sections) > 1 &&
				cfg.only != r.Spec.ID && cfg.only != sec.ID {
				continue
			}
			show(sec.Table)
			if sec.Bars != nil && !cfg.markdown {
				fmt.Fprintln(stdout, stats.Bars("", sec.Bars.Labels, sec.Bars.Values, 40))
			}
		}
	}
	if cfg.short && cfg.only == "" {
		fmt.Fprintln(stderr, "(-short: skipping ablations)")
	}

	bench := experiment.BenchReport(results, cfg.parallel, cfg.short, wall)
	if cfg.outDir != "" {
		if err := artifact.WriteDir(cfg.outDir, experiment.Artifacts(results, bench)); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	fmt.Fprintf(stderr, "%d experiments, %d events in %.2fs wall (parallel=%d, %.2fM events/s)\n",
		len(results), bench.Events, wall.Seconds(), cfg.parallel,
		float64(bench.Events)/wall.Seconds()/1e6)
	if failed > 0 {
		fmt.Fprintf(stderr, "%d of %d experiments failed\n", failed, len(results))
		return 1
	}
	return 0
}

func printHeader(w io.Writer) {
	fmt.Fprintln(w, "perfiso evaluation — reproduction of Verghese, Gupta & Rosenblum,")
	fmt.Fprintln(w, "\"Performance Isolation\", ASPLOS 1998. Table 1 machines:")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "  Pmake8:           8 CPUs, 44 MB, 8 fast disks; 8 SPUs, pmake jobs")
	fmt.Fprintln(w, "  CPU isolation:    8 CPUs, 64 MB; Ocean vs 3x Flashlite + 3x VCS")
	fmt.Fprintln(w, "  Memory isolation: 4 CPUs, 16 MB; pmake jobs under memory pressure")
	fmt.Fprintln(w, "  Disk isolation:   2 CPUs, 44 MB, one shared HP 97560 (seek x1/2)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Table 2 schemes: SMP (unconstrained sharing), Quo (fixed quotas),")
	fmt.Fprintln(w, "PIso (performance isolation). Normalized numbers use SMP = 100.")
	fmt.Fprintln(w)
}
