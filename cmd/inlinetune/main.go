// Command inlinetune runs the paper's local inlining autotuner on one
// translation unit and reports per-round progress.
//
// Usage:
//
//	inlinetune [flags] file.minc
//	inlinetune -link [flags] a.minc b.minc ...
//
//	-link                 link all argument files into one module (LTO-style)
//	                      and autotune it with per-component lockstep sessions
//	-link-dup p           with -link: exported symbols defined in several
//	                      units are an error (default) or renamed (rename)
//	-relink script        replay an edit script (patch <tu> <path> / tune
//	                      lines) against an incremental re-link session:
//	                      content-unchanged components replay their recorded
//	                      tuning trace, only dirty components probe edges
//	-init clean|os|both   starting configuration(s) (default both)
//	-rounds N             tuning rounds (default 4)
//	-target x86|wasm      size model (default x86)
//	-jobs N               parallel per-edge evaluations (default GOMAXPROCS)
//	-dot                  print the tuned call graph as DOT
//	-exact-components N   after the rounds, re-solve exactly (branch-and-
//	                      bound) every call-graph component whose recursive
//	                      space fits N tree evaluations, under the tuned
//	                      labels of the rest (0 disables; try 4096)
//	-check                run the reference evaluator: compile every probed
//	                      configuration fresh with IR invariants verified
//	                      after every inline step and opt pass, no function
//	                      cache or delta engines for size and cycles, no
//	                      pruning in the exact-component polish; -link tunes
//	                      one merged module and -relink links cold at every
//	                      step. stdout is byte-identical (the compilation
//	                      count aside under -exact-components, whose checked
//	                      polish runs the exhaustive recursion)
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
//	-cache-dir d          persist the per-function content cache in directory d
//	-cpuprofile f         write a CPU profile to f
//	-memprofile f         write a heap profile to f at exit
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"optinline/internal/autotune"
	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/heuristic"
	"optinline/internal/interp"
	"optinline/internal/ir"
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
		initMode   = flag.String("init", "both", "starting point: clean|os|both")
		rounds     = flag.Int("rounds", 4, "tuning rounds")
		targetName = flag.String("target", "x86", "size model: x86|wasm")
		jobs       = flag.Int("jobs", runtime.GOMAXPROCS(0), "parallel per-edge evaluations")
		dot        = flag.Bool("dot", false, "print tuned call graph as DOT")
		groups     = flag.Bool("groups", false, "also test per-callee group inlining (paper 5.2.1 extension)")
		incr       = flag.Bool("incremental", false, "incremental rounds: only re-tune changed regions (paper 6 extension)")
		exactComps = flag.Uint64("exact-components", 0, "re-solve components whose recursive space fits N evaluations exactly after the rounds (0 = off)")
		check      = flag.Bool("check", false, "reference evaluator: every configuration compiled fresh and verified after every inline step and opt pass")
		objective  = flag.String("objective", "size", "tuned objective: size|weighted|cycles|pareto")
		lambda     = flag.Float64("lambda", 0.1, "cycle weight for -objective weighted")
		lambdas    = flag.String("lambdas", "0.01,0.1,1", "interior weights for -objective pareto (comma-separated)")
		entryName  = flag.String("entry", "entry", "profiled root function for cycle objectives")
		entryArgs  = flag.String("args", "7", "profiled root arguments (comma-separated integers)")
		fuel       = flag.Int64("fuel", 20_000_000, "profiling interpretation fuel")
		cacheBytes = flag.Int("cache-bytes", 0, "modelled i-cache capacity in bytes (0 = interpreter default)")
		cacheDir   = flag.String("cache-dir", "", "persist the per-function content cache in this directory")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file at exit")
		doLink     = flag.Bool("link", false, "link all argument files into one module and autotune it component-sharded")
		linkDup    = flag.String("link-dup", "error", "with -link: duplicate exported symbol policy: error|rename")
		relink     = flag.String("relink", "", "with -link: replay an edit script against an incremental session")
	)
	flag.Parse()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "inlinetune: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "inlinetune: -memprofile:", err)
			}
		}()
	}
	if !*doLink && *relink == "" && flag.NArg() != 1 {
		return fmt.Errorf("usage: inlinetune [flags] file.minc")
	}
	target := codegen.TargetX86
	if *targetName == "wasm" {
		target = codegen.TargetWASM
	}
	cf, err := parseCycleFlags(*objective, *lambda, *lambdas, *entryName, *entryArgs,
		*fuel, *cacheBytes)
	if err != nil {
		return err
	}
	if cf.objective != "size" && (*groups || *incr || *exactComps > 0) {
		return fmt.Errorf("-objective %s does not combine with -groups, -incremental, or -exact-components", cf.objective)
	}
	fncache, err := compile.OpenFnCache(*cacheDir)
	if err != nil {
		return err
	}
	compileOpts := compile.Options{Check: *check, FnCache: fncache}
	if *doLink || *relink != "" {
		if cf.objective == "pareto" {
			return fmt.Errorf("-objective pareto does not combine with -link")
		}
		if *relink != "" {
			return runRelinkTune(flag.Args(), target, compileOpts, *cacheDir, *linkDup, *initMode,
				*rounds, *jobs, cf, *relink)
		}
		return runLinkTune(flag.Args(), target, compileOpts, *cacheDir, *linkDup, *initMode,
			*rounds, *jobs, cf)
	}
	mod, err := source.Load(flag.Arg(0))
	if err != nil {
		return err
	}
	comp := compile.NewWithOptions(mod, target, compileOpts)
	g := comp.Graph()
	osCfg := heuristic.OsConfig(comp.Module(), g)
	osSize := comp.Size(osCfg)
	noInline := comp.Size(callgraph.NewConfig())
	fmt.Printf("%s: %d inlinable calls; no-inline %d bytes, -Os %d bytes\n",
		flag.Arg(0), len(g.Edges), noInline, osSize)
	if cf.objective != "size" {
		if err := runCycleTune(comp, osCfg, cf, *initMode, *rounds, *jobs); err != nil {
			return err
		}
		return comp.CheckFailure()
	}

	opts := autotune.Options{Rounds: *rounds, Workers: *jobs}
	tune := func(init *callgraph.Config) autotune.Result {
		if *groups || *incr || *exactComps > 0 {
			return autotune.TuneExtended(comp, init, autotune.ExtOptions{
				Options: opts, GroupCallees: *groups, Incremental: *incr,
				ExactComponents: *exactComps,
			})
		}
		return autotune.Tune(comp, init, opts)
	}
	report := func(name string, res autotune.Result) {
		fmt.Printf("\n%s (init %d bytes):\n", name, res.InitSize)
		for _, r := range res.Rounds {
			fmt.Printf("  round %d: %d bytes (%.1f%% of -Os), %d inlined / %d not, %d toggles\n",
				r.Round, r.Size, pct(r.Size, osSize), r.Inlined, r.NotInlined, r.Toggles)
		}
		fmt.Printf("  best: %d bytes (%.1f%% of -Os), inlining %v\n",
			res.Size, pct(res.Size, osSize), res.Config.InlineSites())
	}

	var best autotune.Result
	switch *initMode {
	case "clean":
		best = tune(nil)
		report("clean slate", best)
	case "os":
		best = tune(osCfg)
		report("-Os initialized", best)
	case "both":
		clean := tune(nil)
		inited := tune(osCfg)
		report("clean slate", clean)
		report("-Os initialized", inited)
		best = clean
		if inited.Size < best.Size {
			best = inited
		}
	default:
		return fmt.Errorf("unknown init mode %q", *initMode)
	}

	fmt.Printf("\nfinal: %d bytes = %.1f%% of -Os (%.1f%% of no-inline), %d compilations\n",
		best.Size, pct(best.Size, osSize), pct(best.Size, noInline), comp.Evaluations())
	saveFnCache(fncache, *cacheDir)
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
func runCycleTune(comp *compile.Compiler, osCfg *callgraph.Config, cf cycleFlags,
	initMode string, rounds, workers int) error {
	pricer, prof, err := pricerFor(comp, cf)
	if err != nil {
		return err
	}
	fmt.Printf("profiled %s%v: %d frames, %d cycles at no-inline (i-cache %d bytes)\n",
		cf.entry, cf.args, prof.TotalFrames(), prof.Res.Cycles, pricer.CacheBytes())
	opts := autotune.Options{Rounds: rounds, Workers: workers}

	if cf.objective == "pareto" {
		pts := autotune.Pareto(comp, pricer, nil, cf.lambdas, opts)
		fmt.Printf("\npareto frontier (%d points):\n", len(pts))
		for _, p := range pts {
			fmt.Printf("  lambda %8s: %6d bytes, %10d cycles, inlining %d of %d sites\n",
				lambdaLabel(p.Lambda), p.Size, p.Cycles, p.Config.InlineCount(), len(comp.Graph().Sites()))
		}
		fmt.Fprintf(os.Stderr, "cycle pricer: %v\n", pricer.Stats())
		return nil
	}

	cost := func(r autotune.Result) float64 {
		if cf.objective == "cycles" {
			return float64(r.Cycles)
		}
		return float64(r.Size) + cf.lambda*float64(r.Cycles)
	}
	tune := func(init *callgraph.Config) autotune.Result {
		if cf.objective == "cycles" {
			return autotune.TuneCycles(comp, pricer, init, opts)
		}
		return autotune.TuneWeighted(comp, pricer, cf.lambda, init, opts)
	}
	report := func(name string, res autotune.Result) {
		fmt.Printf("\n%s, objective %s (init %d bytes, %d cycles):\n",
			name, objectiveLabel(cf), res.InitSize, res.InitCycles)
		for _, r := range res.Rounds {
			fmt.Printf("  round %d: %d bytes, %d cycles, %d inlined / %d not, %d toggles\n",
				r.Round, r.Size, r.Cycles, r.Inlined, r.NotInlined, r.Toggles)
		}
		fmt.Printf("  best: %d bytes, %d cycles, inlining %v\n",
			res.Size, res.Cycles, res.Config.InlineSites())
	}

	var best autotune.Result
	switch initMode {
	case "clean":
		best = tune(nil)
		report("clean slate", best)
	case "os":
		best = tune(osCfg)
		report("-Os initialized", best)
	case "both":
		clean := tune(nil)
		inited := tune(osCfg)
		report("clean slate", clean)
		report("-Os initialized", inited)
		best = clean
		if cost(inited) < cost(best) {
			best = inited
		}
	default:
		return fmt.Errorf("unknown init mode %q", initMode)
	}
	fmt.Printf("\nfinal: %d bytes, %d cycles, %d compilations\n",
		best.Size, best.Cycles, comp.Evaluations())
	fmt.Fprintf(os.Stderr, "cycle pricer: %v\n", pricer.Stats())
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

func objectiveLabel(cf cycleFlags) string {
	if cf.objective == "weighted" {
		return fmt.Sprintf("bytes + %g*cycles", cf.lambda)
	}
	return cf.objective
}

// runLinkTune links the argument files and autotunes the merged module with
// per-component lockstep sessions (with -check, the whole-module
// reference). stdout is mode-independent; counters go to stderr.
func runLinkTune(files []string, target codegen.Target, compileOpts compile.Options,
	cacheDir, dupPolicy, initMode string, rounds, jobs int, cf cycleFlags) error {
	if len(files) == 0 {
		return fmt.Errorf("usage: inlinetune -link [flags] a.minc b.minc ...")
	}
	var dup link.DupPolicy
	switch dupPolicy {
	case "error":
		dup = link.DupExportedError
	case "rename":
		dup = link.DupExportedRename
	default:
		return fmt.Errorf("-link-dup: unknown policy %q (want error or rename)", dupPolicy)
	}
	l, err := link.New(fileTUs(files), link.Options{DupExported: dup})
	if err != nil {
		return err
	}
	pl := l.Plan()
	printLinkTunePlanLine(pl)

	opts := link.TuneOptions{
		ShardOptions: link.ShardOptions{Target: target, Compile: compileOpts, Workers: jobs},
		Rounds:       rounds,
	}
	cycleAware := cf.objective != "size"
	if cycleAware {
		switch cf.objective {
		case "weighted":
			opts.Objective = link.ObjectiveWeighted
		case "cycles":
			opts.Objective = link.ObjectiveCycles
		}
		opts.Lambda = cf.lambda
		opts.Entry = cf.entry
		opts.Args = cf.args
		opts.Fuel = cf.fuel
		opts.CacheBytes = cf.cacheBytes
	}
	report := func(name string, tr link.TuneResult) {
		if !cycleAware {
			reportLinkTuneSize(pl, name, tr)
			return
		}
		res := tr.Result
		fmt.Printf("\n%s, objective %s (init %d bytes, %d cycles):\n",
			name, objectiveLabel(cf), res.InitSize, res.InitCycles)
		for _, r := range res.Rounds {
			fmt.Printf("  round %d: %d bytes, %d cycles, %d inlined / %d not, %d toggles\n",
				r.Round, r.Size, r.Cycles, r.Inlined, r.NotInlined, r.Toggles)
		}
		fmt.Printf("  best: %d bytes, %d cycles, inlining %d of %d sites\n",
			res.Size, res.Cycles, res.Config.InlineCount(), len(pl.Edges))
		printTuneComponents(tr)
	}
	tuneOne := func(init link.TuneInit) (link.TuneResult, error) {
		o := opts
		o.Init = init
		return l.Tune(o)
	}

	var best link.TuneResult
	var evals int64
	switch initMode {
	case "clean":
		tr, err := tuneOne(link.InitClean)
		if err != nil {
			return err
		}
		report("clean slate", tr)
		best, evals = tr, tr.Evaluations
	case "os":
		tr, err := tuneOne(link.InitOs)
		if err != nil {
			return err
		}
		report("-Os initialized", tr)
		best, evals = tr, tr.Evaluations
	case "both":
		clean, err := tuneOne(link.InitClean)
		if err != nil {
			return err
		}
		inited, err := tuneOne(link.InitOs)
		if err != nil {
			return err
		}
		report("clean slate", clean)
		report("-Os initialized", inited)
		best = clean
		linkCost := func(tr link.TuneResult) float64 {
			switch cf.objective {
			case "cycles":
				return float64(tr.Result.Cycles)
			case "weighted":
				return float64(tr.Result.Size) + cf.lambda*float64(tr.Result.Cycles)
			}
			return float64(tr.Result.Size)
		}
		if linkCost(inited) < linkCost(best) {
			best = inited
		}
		evals = clean.Evaluations + inited.Evaluations
	default:
		return fmt.Errorf("unknown init mode %q", initMode)
	}
	if cycleAware {
		fmt.Printf("\nfinal: %d bytes, %d cycles, inlining %d of %d sites\n",
			best.Result.Size, best.Result.Cycles, best.Result.Config.InlineCount(), len(pl.Edges))
		fmt.Fprintf(os.Stderr, "cycle pricer: %v\n", best.Cycle)
	} else {
		fmt.Printf("\nfinal: %d bytes, inlining %d of %d sites\n",
			best.Result.Size, best.Result.Config.InlineCount(), len(pl.Edges))
	}

	fmt.Fprintf(os.Stderr, "evaluations: %d compilations (config cache %v)\n", evals, best.ConfigCache)
	fmt.Fprintf(os.Stderr, "function cache: %v\n", best.FuncCache)
	saveFnCache(compileOpts.FnCache, cacheDir)
	return nil
}

// saveFnCache persists the content cache when -cache-dir is set and
// reports its counters on stderr.
func saveFnCache(fncache *compile.FnCache, cacheDir string) {
	if cacheDir != "" {
		if err := fncache.Save(); err != nil {
			fmt.Fprintln(os.Stderr, "inlinetune:", err)
		}
	}
	fmt.Fprintf(os.Stderr, "fn content cache: %v\n", fncache.Stats())
}

func printLinkTunePlanLine(pl *link.Plan) {
	fmt.Printf("linked %d TUs: %d functions, %d inlinable call sites (%d cross-TU, %d locals renamed), %d components\n",
		len(pl.TUs), len(pl.Funcs), len(pl.Edges), pl.CrossTU, pl.Renamed, len(pl.Components))
}

func printTuneComponents(tr link.TuneResult) {
	for _, cs := range tr.Components {
		fmt.Printf("    component %2d: %3d funcs, %3d sites, inlined %3d\n",
			cs.Index, cs.Funcs, cs.Edges, cs.Inlined)
	}
}

// reportLinkTuneSize renders one size-objective tuning report. Both the
// one-shot -link path and the -relink replay print through it, so the
// -check byte-diff gates hold by construction.
func reportLinkTuneSize(pl *link.Plan, name string, tr link.TuneResult) {
	res := tr.Result
	fmt.Printf("\n%s (init %d bytes):\n", name, res.InitSize)
	for _, r := range res.Rounds {
		fmt.Printf("  round %d: %d bytes, %d inlined / %d not, %d toggles\n",
			r.Round, r.Size, r.Inlined, r.NotInlined, r.Toggles)
	}
	fmt.Printf("  best: %d bytes, inlining %d of %d sites\n",
		res.Size, res.Config.InlineCount(), len(pl.Edges))
	printTuneComponents(tr)
}

// runRelinkTune replays a -relink edit script of patch and tune steps. It
// drives an incremental link.Session: a tune step replays the recorded
// per-round trace of every content-unchanged component and probes edges
// only in dirty ones. With -check the session re-links and re-tunes from
// scratch at every step — the reference whose stdout must byte-match.
// Cycle objectives are rejected up front (they need a whole-program
// profile that edits invalidate).
func runRelinkTune(files []string, target codegen.Target, compileOpts compile.Options,
	cacheDir, dupPolicy, initMode string, rounds, jobs int, cf cycleFlags, script string) error {
	if len(files) == 0 {
		return fmt.Errorf("usage: inlinetune -relink script [flags] a.minc b.minc ...")
	}
	if cf.objective != "size" {
		return fmt.Errorf("-relink replays the size objective only; -objective %s needs a whole-program profile that edits invalidate (run one-shot -link instead)", cf.objective)
	}
	switch initMode {
	case "clean", "os", "both":
	default:
		return fmt.Errorf("unknown init mode %q", initMode)
	}
	var dup link.DupPolicy
	switch dupPolicy {
	case "error":
		dup = link.DupExportedError
	case "rename":
		dup = link.DupExportedRename
	default:
		return fmt.Errorf("-link-dup: unknown policy %q (want error or rename)", dupPolicy)
	}
	scriptData, err := os.ReadFile(script)
	if err != nil {
		return fmt.Errorf("-relink: %w", err)
	}
	ops, err := link.ParseEditScript(scriptData)
	if err != nil {
		return fmt.Errorf("-relink %s: %w", script, err)
	}
	scriptDir := filepath.Dir(script)

	sess, err := link.NewSession(fileTUs(files), link.SessionOptions{Link: link.Options{DupExported: dup}})
	if err != nil {
		return err
	}
	opts := link.TuneOptions{
		ShardOptions: link.ShardOptions{Target: target, Compile: compileOpts, Workers: jobs},
		Rounds:       rounds,
	}
	for step, op := range ops {
		switch op.Verb {
		case "patch":
			path := op.Path
			if !filepath.IsAbs(path) {
				path = filepath.Join(scriptDir, path)
			}
			fmt.Printf("== step %d: patch %s <- %s ==\n", step+1, op.TU, op.Path)
			tu := link.LazyTU(op.TU, func() (*ir.Module, error) { return source.Load(path) })
			rep, err := sess.ReplaceNamed(tu)
			if err != nil {
				return fmt.Errorf("step %d: %w", step+1, err)
			}
			if rep.PlanReused {
				fmt.Fprintf(os.Stderr, "step %d: body-only edit, plan reused\n", step+1)
			} else {
				fmt.Fprintf(os.Stderr, "step %d: link surface changed, plan rebuilt\n", step+1)
			}
		case "tune":
			fmt.Printf("== step %d: tune ==\n", step+1)
			pl := sess.Plan()
			tuneOne := func(init link.TuneInit) (link.TuneResult, link.RelinkInfo, error) {
				o := opts
				o.Init = init
				return sess.Tune(o)
			}
			printLinkTunePlanLine(pl)
			reportInfo := func(init string, info link.RelinkInfo) {
				fmt.Fprintf(os.Stderr, "step %d (%s): components solved %d, replayed %d; residual solved %d, replayed %d\n",
					step+1, init, info.ComponentsSolved, info.ComponentsReplayed, info.ResidualSolved, info.ResidualReplayed)
			}
			var best link.TuneResult
			switch initMode {
			case "clean":
				tr, info, err := tuneOne(link.InitClean)
				if err != nil {
					return fmt.Errorf("step %d: %w", step+1, err)
				}
				reportLinkTuneSize(pl, "clean slate", tr)
				reportInfo("clean", info)
				best = tr
			case "os":
				tr, info, err := tuneOne(link.InitOs)
				if err != nil {
					return fmt.Errorf("step %d: %w", step+1, err)
				}
				reportLinkTuneSize(pl, "-Os initialized", tr)
				reportInfo("os", info)
				best = tr
			case "both":
				clean, cInfo, err := tuneOne(link.InitClean)
				if err != nil {
					return fmt.Errorf("step %d: %w", step+1, err)
				}
				inited, oInfo, err := tuneOne(link.InitOs)
				if err != nil {
					return fmt.Errorf("step %d: %w", step+1, err)
				}
				reportLinkTuneSize(pl, "clean slate", clean)
				reportLinkTuneSize(pl, "-Os initialized", inited)
				reportInfo("clean", cInfo)
				reportInfo("os", oInfo)
				best = clean
				if inited.Result.Size < best.Result.Size {
					best = inited
				}
			}
			fmt.Printf("\nfinal: %d bytes, inlining %d of %d sites\n",
				best.Result.Size, best.Result.Config.InlineCount(), len(pl.Edges))
		case "search":
			return fmt.Errorf("step %d: search steps replay with inlinesearch -relink", step+1)
		}
	}
	saveFnCache(compileOpts.FnCache, cacheDir)
	return nil
}

func fileTUs(files []string) []link.TU {
	tus := make([]link.TU, 0, len(files))
	for _, path := range files {
		path := path
		tus = append(tus, link.LazyTU(path, func() (*ir.Module, error) {
			return source.Load(path)
		}))
	}
	return tus
}
