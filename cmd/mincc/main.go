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
//	-inline none|os|tune|optimal   inlining strategy (default os)
//	-S                             print the pseudo-assembly listing
//	-emit-ir                       print the optimized IR
//	-run <entry>                   interpret entry after compiling
//	-arg N                         integer argument for -run (repeatable)
//	-rounds N                      autotuner rounds for -inline tune
//	-outline                       run the size outliner after inlining
//
// Shared flags (see README "Checked mode is the reference" for -check):
//
//	-target x86|wasm               size model (default x86)
//	-link-dup p                    duplicate exported symbols: error
//	                               (default) or rename
//	-check                         run the reference evaluator; stdout is
//	                               byte-identical
//	-cache-dir d                   persist the per-function content cache in
//	                               directory d across runs
//	-cpuprofile f                  write a CPU profile to f
//	-memprofile f                  write a heap profile to f at exit
//
// Content-cache counters print on stderr at exit.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"optinline/internal/autotune"
	"optinline/internal/callgraph"
	"optinline/internal/cli"
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
		listing    = flag.Bool("S", false, "print pseudo-assembly listing")
		emitIR     = flag.Bool("emit-ir", false, "print optimized IR")
		entry      = flag.String("run", "", "interpret this entry function after compiling")
		doOutline  = flag.Bool("outline", false, "run the size outliner after inlining")
		args       intList
	)
	flag.Var(&args, "arg", "integer argument for -run (repeatable)")
	f := cli.New("mincc", flag.CommandLine)
	f.AddTarget()
	f.AddRounds(1, "autotuner rounds for -inline tune")
	f.AddCheck("reference evaluator: every configuration compiled fresh and verified after every inline step and opt pass")
	f.AddCacheDir()
	f.AddLink("link all argument files into one module before inlining")
	f.AddProfile()
	flag.Parse()
	if err := f.Start(); err != nil {
		return err
	}
	defer f.Finish()

	var mod *ir.Module
	var err error
	if f.Link {
		mod, err = link.Link(f.Units(), link.Options{DupExported: f.Dup})
	} else {
		mod, err = source.Load(flag.Arg(0))
	}
	if err != nil {
		return err
	}
	comp := compile.NewWithOptions(mod, f.Target, f.CompileOptions())
	g := comp.Graph()

	var cfg *callgraph.Config
	switch *inlineMode {
	case "none":
		cfg = callgraph.NewConfig()
	case "os":
		cfg = heuristic.OsConfig(comp.Module(), g)
	case "tune":
		init := heuristic.OsConfig(comp.Module(), g)
		best, _, _ := autotune.Combined(comp, init, autotune.Options{Rounds: f.Rounds})
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
		st := outline.Module(built, outline.Options{Target: f.Target})
		if st.FunctionsCreated > 0 {
			fmt.Printf("outliner: %d functions extracted, %d calls inserted\n",
				st.FunctionsCreated, st.CallsInserted)
		}
	}
	size := codegen.ModuleSize(built, f.Target)
	label := flag.Arg(0)
	if f.Link {
		label = fmt.Sprintf("linked(%d files)", flag.NArg())
	}
	fmt.Printf("%s: %d inlinable calls, %d inlined, .text %d bytes (%s, -inline %s)\n",
		label, len(g.Edges), cfg.InlineCount(), size, f.Target, *inlineMode)

	if *emitIR {
		fmt.Println(built.String())
	}
	if *listing {
		fmt.Println(codegen.Listing(built, f.Target))
	}
	if *entry != "" {
		res, err := interp.Run(built, *entry, args, interp.Options{
			SizeOf: codegen.SizeOf(built, f.Target),
		})
		if err != nil {
			return err
		}
		fmt.Printf("%s(%v) = %d  [%d steps, %d cycles, %d outputs]\n",
			*entry, []int64(args), res.Ret, res.Steps, res.Cycles, res.OutputLen)
	}
	return nil
}
