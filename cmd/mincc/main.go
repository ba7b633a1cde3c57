// Command mincc compiles a MinC source file (or textual IR) down to the
// toy ISA and reports code size. It exposes the inlining strategies of the
// library: none, the -Os-style heuristic, the local autotuner, or the
// exhaustive optimum.
//
// Usage:
//
//	mincc [flags] file.minc
//	mincc -link [flags] a.minc b.minc ...
//
//	-link                          link all argument files into one module
//	                               (LTO-style) before inlining: cross-file
//	                               calls become candidates, file-local name
//	                               collisions are renamed apart
//	-link-dup error|rename         duplicate exported symbol policy for -link
//	-relink script                 with -inline optimal: replay an edit script
//	                               (patch <tu> <path> / search lines) against
//	                               an incremental re-link session; unchanged
//	                               components replay their cached optimum
//	-inline none|os|tune|optimal   inlining strategy (default os)
//	-target x86|wasm               size model (default x86)
//	-S                             print the pseudo-assembly listing
//	-emit-ir                       print the optimized IR
//	-run <entry>                   interpret entry after compiling
//	-arg N                         integer argument for -run (repeatable)
//	-rounds N                      autotuner rounds for -inline tune
//	-check                         run the reference evaluator: compile every
//	                               configuration fresh, verifying IR
//	                               invariants after every inline step and opt
//	                               pass, with no function cache, delta engine
//	                               or pruning; -relink links cold at every
//	                               step. stdout is byte-identical
//	-cache-dir d                   persist the per-function content cache in
//	                               directory d across runs
//	-cache-stats                   print content-cache counters to stderr
//	-cpuprofile f                  write a CPU profile to f
//	-memprofile f                  write a heap profile to f at exit
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"

	"optinline/internal/autotune"
	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/heuristic"
	"optinline/internal/interp"
	"optinline/internal/ir"
	"optinline/internal/link"
	"optinline/internal/outline"
	"optinline/internal/search"
	"optinline/internal/source"
)

type intList []int64

func (l *intList) String() string { return fmt.Sprint(*l) }
func (l *intList) Set(s string) error {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return err
	}
	*l = append(*l, v)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mincc:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		inlineMode = flag.String("inline", "os", "inlining strategy: none|os|tune|optimal")
		targetName = flag.String("target", "x86", "size model: x86|wasm")
		listing    = flag.Bool("S", false, "print pseudo-assembly listing")
		emitIR     = flag.Bool("emit-ir", false, "print optimized IR")
		entry      = flag.String("run", "", "interpret this entry function after compiling")
		rounds     = flag.Int("rounds", 1, "autotuner rounds for -inline tune")
		doOutline  = flag.Bool("outline", false, "run the size outliner after inlining")
		check      = flag.Bool("check", false, "reference evaluator: every configuration compiled fresh and verified after every inline step and opt pass")
		cacheDir   = flag.String("cache-dir", "", "persist the per-function content cache in this directory")
		cacheStats = flag.Bool("cache-stats", false, "print content-cache counters to stderr")
		doLink     = flag.Bool("link", false, "link all argument files into one module before inlining")
		linkDup    = flag.String("link-dup", "error", "with -link: duplicate exported symbol policy: error|rename")
		relink     = flag.String("relink", "", "replay an edit script against an incremental re-link session (-inline optimal only)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file at exit")
		args       intList
	)
	flag.Var(&args, "arg", "integer argument for -run (repeatable)")
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
				fmt.Fprintln(os.Stderr, "mincc: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "mincc: -memprofile:", err)
			}
		}()
	}
	if *doLink || *relink != "" {
		if flag.NArg() == 0 {
			return fmt.Errorf("usage: mincc -link [flags] a.minc b.minc ...")
		}
	} else if flag.NArg() != 1 {
		return fmt.Errorf("usage: mincc [flags] file.minc")
	}
	target := codegen.TargetX86
	switch *targetName {
	case "x86":
	case "wasm":
		target = codegen.TargetWASM
	default:
		return fmt.Errorf("unknown target %q", *targetName)
	}
	if *relink != "" {
		if *inlineMode != "optimal" {
			return fmt.Errorf("-relink caches per-component optima; it requires -inline optimal (got -inline %s)", *inlineMode)
		}
		dup, err := parseDupPolicy(*linkDup)
		if err != nil {
			return err
		}
		fncache, err := compile.OpenFnCache(*cacheDir)
		if err != nil {
			return err
		}
		return runRelinkCC(*relink, flag.Args(), target, dup, fncache, *cacheDir, *check, *cacheStats)
	}

	var mod *ir.Module
	if *doLink {
		dup, err := parseDupPolicy(*linkDup)
		if err != nil {
			return err
		}
		if mod, err = link.Link(fileTUs(flag.Args()), link.Options{DupExported: dup}); err != nil {
			return err
		}
	} else {
		var err error
		if mod, err = source.Load(flag.Arg(0)); err != nil {
			return err
		}
	}
	fncache, err := compile.OpenFnCache(*cacheDir)
	if err != nil {
		return err
	}
	comp := compile.NewWithOptions(mod, target, compile.Options{Check: *check, FnCache: fncache})
	g := comp.Graph()

	var cfg *callgraph.Config
	switch *inlineMode {
	case "none":
		cfg = callgraph.NewConfig()
	case "os":
		cfg = heuristic.OsConfig(comp.Module(), g)
	case "tune":
		init := heuristic.OsConfig(comp.Module(), g)
		best, _, _ := autotune.Combined(comp, init, autotune.Options{Rounds: *rounds})
		cfg = best.Config
	case "optimal":
		res, ok := search.Optimal(comp, search.Options{MaxSpace: 1 << 22})
		if !ok {
			return fmt.Errorf("search space too large for exhaustive search (%d+ evaluations); use -inline tune", res.SpaceSize)
		}
		cfg = res.Config
	default:
		return fmt.Errorf("unknown inline mode %q", *inlineMode)
	}

	built, err := comp.Build(cfg)
	if err != nil {
		return err
	}
	if cerr := comp.CheckFailure(); cerr != nil {
		// A search/tune strategy hit an invariant violation on some
		// configuration along the way, even if the final build succeeded.
		return cerr
	}
	if *doOutline {
		st := outline.Module(built, outline.Options{Target: target})
		if st.FunctionsCreated > 0 {
			fmt.Printf("outliner: %d functions extracted, %d calls inserted\n",
				st.FunctionsCreated, st.CallsInserted)
		}
	}
	size := codegen.ModuleSize(built, target)
	label := flag.Arg(0)
	if *doLink {
		label = fmt.Sprintf("linked(%d files)", flag.NArg())
	}
	fmt.Printf("%s: %d inlinable calls, %d inlined, .text %d bytes (%s, -inline %s)\n",
		label, len(g.Edges), cfg.InlineCount(), size, target, *inlineMode)
	if *cacheDir != "" {
		if err := fncache.Save(); err != nil {
			fmt.Fprintln(os.Stderr, "mincc:", err)
		}
	}
	if *cacheStats {
		fmt.Fprintf(os.Stderr, "fn content cache: %v\n", fncache.Stats())
	}

	if *emitIR {
		fmt.Println(built.String())
	}
	if *listing {
		fmt.Println(codegen.Listing(built, target))
	}
	if *entry != "" {
		res, err := interp.Run(built, *entry, args, interp.Options{
			SizeOf: codegen.SizeOf(built, target),
		})
		if err != nil {
			return err
		}
		fmt.Printf("%s(%v) = %d  [%d steps, %d cycles, %d outputs]\n",
			*entry, []int64(args), res.Ret, res.Steps, res.Cycles, res.OutputLen)
	}
	return nil
}

func parseDupPolicy(name string) (link.DupPolicy, error) {
	switch name {
	case "error":
		return link.DupExportedError, nil
	case "rename":
		return link.DupExportedRename, nil
	}
	return 0, fmt.Errorf("-link-dup: unknown policy %q (want error or rename)", name)
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

// runRelinkCC replays a -relink edit script: patch steps swap one unit's
// contents, search steps print the mincc one-line summary of the linked
// optimum — computed from the search result alone, without materializing
// the linked module. It drives an incremental link.Session; with -check
// the session re-links and re-searches from scratch at every step, and the
// two stdouts are byte-identical (the ci.sh gate diffs them).
func runRelinkCC(script string, files []string, target codegen.Target, dup link.DupPolicy,
	fncache *compile.FnCache, cacheDir string, check, cacheStats bool) error {
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
	opts := link.SearchOptions{
		ShardOptions: link.ShardOptions{
			Target:  target,
			Compile: compile.Options{Check: check, FnCache: fncache},
		},
		MaxSpace: 1 << 22,
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
		case "search":
			pl := sess.Plan()
			res, info, ok, err := sess.Search(opts)
			if err != nil {
				return fmt.Errorf("step %d: %w", step+1, err)
			}
			fmt.Fprintf(os.Stderr, "step %d: components solved %d, replayed %d; residual solved %d, replayed %d\n",
				step+1, info.ComponentsSolved, info.ComponentsReplayed, info.ResidualSolved, info.ResidualReplayed)
			if !ok {
				return fmt.Errorf("step %d: search space too large for exhaustive search; use inlinesearch -relink -max-space", step+1)
			}
			fmt.Printf("linked(%d files): %d inlinable calls, %d inlined, .text %d bytes (%s, -inline optimal)\n",
				len(files), len(pl.Edges), res.Config.InlineCount(), res.Size, target)
		case "tune":
			return fmt.Errorf("step %d: tune steps replay with inlinetune -relink", step+1)
		}
	}
	if cacheDir != "" {
		if err := fncache.Save(); err != nil {
			fmt.Fprintln(os.Stderr, "mincc:", err)
		}
	}
	if cacheStats {
		fmt.Fprintf(os.Stderr, "fn content cache: %v\n", fncache.Stats())
	}
	return nil
}
