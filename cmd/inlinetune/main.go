// Command inlinetune runs the paper's local inlining autotuner on one
// translation unit and reports per-round progress.
//
// Usage:
//
//	inlinetune [flags] file.minc
//	inlinetune -link [flags] a.minc b.minc ...
//	inlinetune -relink script [flags] a.minc b.minc ...
//
//	-init clean|os|both   starting configuration(s) (default both; ties go
//	                      to the clean slate)
//	-rounds N             tuning rounds (default 4)
//	-jobs N               parallel per-edge evaluations (default GOMAXPROCS)
//	-dot                  print the tuned call graph as DOT
//	-groups               also test per-callee group inlining
//	-incremental          only re-tune changed regions after round 1
//	-exact-components N   after the rounds, re-solve exactly (branch-and-
//	                      bound) every call-graph component whose recursive
//	                      space fits N tree evaluations, under the tuned
//	                      labels of the rest (0 disables; try 4096)
//	-objective o          tuned objective: size (default), weighted
//	                      (bytes + lambda*cycles), cycles, or pareto (a
//	                      lambda sweep printing the size/speed frontier);
//	                      cycle objectives profile the no-inline baseline
//	                      once and reprice every probe incrementally
//	-lambda F             cycle weight for -objective weighted (default 0.1)
//	-lambdas l1,l2,...    interior weights for -objective pareto
//	-entry f, -args a,b   profiled root and arguments (default entry(7))
//	-fuel N               profiling interpretation fuel
//	-cache-bytes N        modelled i-cache capacity (0 = default)
//	-link                 link all argument files into one module (LTO-style)
//	                      and autotune it with per-component lockstep sessions
//	-relink script        replay an edit script of patch, search and tune
//	                      steps against an incremental re-link session (see
//	                      README "Incremental re-link"); size objective only
//
// Shared flags (see README "Checked mode is the reference" for -check):
//
//	-target x86|wasm      size model (default x86)
//	-link-dup p           duplicate exported symbols: error (default) or rename
//	-check                run the reference evaluator; stdout is byte-identical
//	                      (the compilation count aside under -exact-components)
//	-cache-dir d          persist the per-function content cache in directory d
//	-cpuprofile f         write a CPU profile to f
//	-memprofile f         write a heap profile to f at exit
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"optinline/internal/autotune"
	"optinline/internal/callgraph"
	"optinline/internal/cli"
	"optinline/internal/compile"
	"optinline/internal/heuristic"
	"optinline/internal/interp"
	"optinline/internal/link"
	"optinline/internal/source"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "inlinetune:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dot        = flag.Bool("dot", false, "print tuned call graph as DOT")
		groups     = flag.Bool("groups", false, "also test per-callee group inlining (paper 5.2.1 extension)")
		incr       = flag.Bool("incremental", false, "incremental rounds: only re-tune changed regions (paper 6 extension)")
		exactComps = flag.Uint64("exact-components", 0, "re-solve components whose recursive space fits N evaluations exactly after the rounds (0 = off)")
		objective  = flag.String("objective", "size", "tuned objective: size|weighted|cycles|pareto")
		lambda     = flag.Float64("lambda", 0.1, "cycle weight for -objective weighted")
		lambdas    = flag.String("lambdas", "0.01,0.1,1", "interior weights for -objective pareto (comma-separated)")
		entryName  = flag.String("entry", "entry", "profiled root function for cycle objectives")
		entryArgs  = flag.String("args", "7", "profiled root arguments (comma-separated integers)")
		fuel       = flag.Int64("fuel", 20_000_000, "profiling interpretation fuel")
		cacheBytes = flag.Int("cache-bytes", 0, "modelled i-cache capacity in bytes (0 = interpreter default)")
	)
	f := cli.New("inlinetune", flag.CommandLine)
	f.AddInit()
	f.AddRounds(4, "tuning rounds")
	f.AddTarget()
	f.AddJobs(runtime.GOMAXPROCS(0), "parallel per-edge evaluations")
	f.AddCheck("reference evaluator: every configuration compiled fresh and verified after every inline step and opt pass")
	f.AddCacheDir()
	f.AddProfile()
	f.AddLink("link all argument files into one module and autotune it component-sharded")
	f.AddRelink()
	flag.Parse()
	cf, err := parseCycleFlags(*objective, *lambda, *lambdas, *entryName, *entryArgs,
		*fuel, *cacheBytes)
	if err != nil {
		return err
	}
	if cf.objective != "size" && (*groups || *incr || *exactComps > 0) {
		return fmt.Errorf("-objective %s does not combine with -groups, -incremental, or -exact-components", cf.objective)
	}
	if cf.objective == "pareto" && (f.Link || f.Relink != "") {
		return fmt.Errorf("-objective pareto does not combine with -link")
	}
	if cf.objective != "size" && f.Relink != "" {
		return fmt.Errorf("-relink replays the size objective only; -objective %s needs a whole-program profile that edits invalidate (run one-shot -link instead)", cf.objective)
	}
	if err := f.Start(); err != nil {
		return err
	}
	defer f.Finish()
	switch {
	case f.Relink != "":
		return f.Replay(os.Stdout)
	case f.Link:
		return runLinkTune(f, cf)
	}

	mod, err := source.Load(flag.Arg(0))
	if err != nil {
		return err
	}
	comp := compile.NewWithOptions(mod, f.Target, f.CompileOptions())
	g := comp.Graph()
	osCfg := heuristic.OsConfig(comp.Module(), g)
	osSize := comp.Size(osCfg)
	noInline := comp.Size(callgraph.NewConfig())
	fmt.Printf("%s: %d inlinable calls; no-inline %d bytes, -Os %d bytes\n",
		flag.Arg(0), len(g.Edges), noInline, osSize)
	initConfig := func(in cli.Init) *callgraph.Config {
		if in.Kind == link.InitOs {
			return osCfg
		}
		return nil
	}
	if cf.objective != "size" {
		if err := runCycleTune(f, comp, initConfig, cf); err != nil {
			return err
		}
		return comp.CheckFailure()
	}

	opts := autotune.Options{Rounds: f.Rounds, Workers: f.Jobs}
	best, _ := cli.BestOf(f.Inits, func(in cli.Init) (autotune.Result, error) {
		var res autotune.Result
		if *groups || *incr || *exactComps > 0 {
			res = autotune.TuneExtended(comp, initConfig(in), autotune.ExtOptions{
				Options: opts, GroupCallees: *groups, Incremental: *incr,
				ExactComponents: *exactComps,
			})
		} else {
			res = autotune.Tune(comp, initConfig(in), opts)
		}
		fmt.Printf("\n%s (init %d bytes):\n", in.Label, res.InitSize)
		for _, r := range res.Rounds {
			fmt.Printf("  round %d: %d bytes (%.1f%% of -Os), %d inlined / %d not, %d toggles\n",
				r.Round, r.Size, pct(r.Size, osSize), r.Inlined, r.NotInlined, r.Toggles)
		}
		fmt.Printf("  best: %d bytes (%.1f%% of -Os), inlining %v\n",
			res.Size, pct(res.Size, osSize), res.Config.InlineSites())
		return res, nil
	}, func(r autotune.Result) float64 { return float64(r.Size) })

	fmt.Printf("\nfinal: %d bytes = %.1f%% of -Os (%.1f%% of no-inline), %d compilations\n",
		best.Size, pct(best.Size, osSize), pct(best.Size, noInline), comp.Evaluations())
	if *dot {
		fmt.Println()
		fmt.Println(g.DOT(flag.Arg(0), best.Config))
	}
	return comp.CheckFailure()
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b) * 100
}

// cycleFlags bundles the cycle-objective knobs shared by the single-file
// and -link paths.
type cycleFlags struct {
	objective  string // size|weighted|cycles|pareto
	lambda     float64
	lambdas    []float64
	entry      string
	args       []int64
	fuel       int64
	cacheBytes int
}

func parseCycleFlags(objective string, lambda float64, lambdas, entry, args string,
	fuel int64, cacheBytes int) (cycleFlags, error) {
	cf := cycleFlags{
		objective: objective, lambda: lambda, entry: entry,
		fuel: fuel, cacheBytes: cacheBytes,
	}
	switch objective {
	case "size", "weighted", "cycles", "pareto":
	default:
		return cf, fmt.Errorf("-objective: unknown objective %q (want size, weighted, cycles, or pareto)", objective)
	}
	for _, f := range strings.Split(lambdas, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v <= 0 {
			return cf, fmt.Errorf("-lambdas: bad weight %q", f)
		}
		cf.lambdas = append(cf.lambdas, v)
	}
	for _, a := range strings.Split(args, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		v, err := strconv.ParseInt(a, 10, 64)
		if err != nil {
			return cf, fmt.Errorf("-args: bad argument %q", a)
		}
		cf.args = append(cf.args, v)
	}
	return cf, nil
}

// cost is the objective value of a tuned size and cycle count.
func (cf cycleFlags) cost(size int, cycles int64) float64 {
	switch cf.objective {
	case "cycles":
		return float64(cycles)
	case "weighted":
		return float64(size) + cf.lambda*float64(cycles)
	}
	return float64(size)
}

// pricerFor profiles the no-inline baseline and wraps it in a cycle pricer.
func pricerFor(comp *compile.Compiler, cf cycleFlags) (*compile.CyclePricer, *interp.Profile, error) {
	built, err := comp.Build(callgraph.NewConfig())
	if err != nil {
		return nil, nil, err
	}
	_, prof, err := interp.Collect(built, cf.entry, cf.args, interp.Options{Fuel: cf.fuel})
	if err != nil {
		return nil, nil, fmt.Errorf("profiling %s%v: %w", cf.entry, cf.args, err)
	}
	pricer, err := comp.NewCyclePricer(prof, compile.CycleOptions{CacheBytes: cf.cacheBytes})
	if err != nil {
		return nil, nil, err
	}
	return pricer, prof, nil
}

// runCycleTune tunes one translation unit for a cycle-aware objective.
// stdout is byte-identical with and without -check.
func runCycleTune(f *cli.Flags, comp *compile.Compiler, initConfig func(cli.Init) *callgraph.Config,
	cf cycleFlags) error {
	pricer, prof, err := pricerFor(comp, cf)
	if err != nil {
		return err
	}
	defer func() { cli.Stat("cycle pricer", pricer.Stats()) }()
	fmt.Printf("profiled %s%v: %d frames, %d cycles at no-inline (i-cache %d bytes)\n",
		cf.entry, cf.args, prof.TotalFrames(), prof.Res.Cycles, pricer.CacheBytes())
	opts := autotune.Options{Rounds: f.Rounds, Workers: f.Jobs}

	if cf.objective == "pareto" {
		pts := autotune.Pareto(comp, pricer, nil, cf.lambdas, opts)
		fmt.Printf("\npareto frontier (%d points):\n", len(pts))
		for _, p := range pts {
			fmt.Printf("  lambda %8s: %6d bytes, %10d cycles, inlining %d of %d sites\n",
				lambdaLabel(p.Lambda), p.Size, p.Cycles, p.Config.InlineCount(), len(comp.Graph().Sites()))
		}
		return nil
	}

	best, _ := cli.BestOf(f.Inits, func(in cli.Init) (autotune.Result, error) {
		var res autotune.Result
		if cf.objective == "cycles" {
			res = autotune.TuneCycles(comp, pricer, initConfig(in), opts)
		} else {
			res = autotune.TuneWeighted(comp, pricer, cf.lambda, initConfig(in), opts)
		}
		cf.printRounds(in.Label, res)
		fmt.Printf("  best: %d bytes, %d cycles, inlining %v\n",
			res.Size, res.Cycles, res.Config.InlineSites())
		return res, nil
	}, func(r autotune.Result) float64 { return cf.cost(r.Size, r.Cycles) })
	fmt.Printf("\nfinal: %d bytes, %d cycles, %d compilations\n",
		best.Size, best.Cycles, comp.Evaluations())
	return nil
}

func lambdaLabel(l float64) string {
	switch {
	case l == 0:
		return "size"
	case math.IsInf(l, 1):
		return "cycles"
	default:
		return fmt.Sprintf("%g", l)
	}
}

// printRounds prints the heading and per-round trace of one cycle-aware
// tuning run from the init labelled label.
func (cf cycleFlags) printRounds(label string, res autotune.Result) {
	objective := cf.objective
	if objective == "weighted" {
		objective = fmt.Sprintf("bytes + %g*cycles", cf.lambda)
	}
	fmt.Printf("\n%s, objective %s (init %d bytes, %d cycles):\n",
		label, objective, res.InitSize, res.InitCycles)
	for _, r := range res.Rounds {
		fmt.Printf("  round %d: %d bytes, %d cycles, %d inlined / %d not, %d toggles\n",
			r.Round, r.Size, r.Cycles, r.Inlined, r.NotInlined, r.Toggles)
	}
}

// runLinkTune links the argument files and autotunes the merged module with
// per-component lockstep sessions (with -check, the whole-module
// reference). stdout is mode-independent; counters go to stderr.
func runLinkTune(f *cli.Flags, cf cycleFlags) error {
	l, err := link.New(f.Units(), link.Options{DupExported: f.Dup})
	if err != nil {
		return err
	}
	pl := l.Plan()
	cli.TunePlan(os.Stdout, pl)

	cycleAware := cf.objective != "size"
	var evals int64
	best, err := cli.BestOf(f.Inits, func(in cli.Init) (link.TuneResult, error) {
		opts := f.TuneOptions(in)
		if cycleAware {
			opts.Objective = link.ObjectiveCycles
			if cf.objective == "weighted" {
				opts.Objective = link.ObjectiveWeighted
			}
			opts.Lambda, opts.Entry, opts.Args = cf.lambda, cf.entry, cf.args
			opts.Fuel, opts.CacheBytes = cf.fuel, cf.cacheBytes
		}
		tr, err := l.Tune(opts)
		if err != nil {
			return tr, err
		}
		evals += tr.Evaluations
		if !cycleAware {
			cli.TuneReport(os.Stdout, pl, in.Label, tr)
			return tr, nil
		}
		res := tr.Result
		cf.printRounds(in.Label, res)
		fmt.Printf("  best: %d bytes, %d cycles, inlining %d of %d sites\n",
			res.Size, res.Cycles, res.Config.InlineCount(), len(pl.Edges))
		cli.TuneComponents(os.Stdout, tr)
		return tr, nil
	}, func(tr link.TuneResult) float64 { return cf.cost(tr.Result.Size, tr.Result.Cycles) })
	if err != nil {
		return err
	}
	if cycleAware {
		fmt.Printf("\nfinal: %d bytes, %d cycles, inlining %d of %d sites\n",
			best.Result.Size, best.Result.Cycles, best.Result.Config.InlineCount(), len(pl.Edges))
		cli.Stat("cycle pricer", best.Cycle)
	} else {
		cli.TuneFinal(os.Stdout, pl, best)
	}
	cli.Stat("evaluations", evals)
	cli.Stat("config cache", best.ConfigCache)
	cli.Stat("function cache", best.FuncCache)
	return nil
}
