// Command inlinesearch exhaustively searches the recursively partitioned
// inlining space of one translation unit and reports the optimal
// configuration, comparing it with the -Os heuristic (the paper's roofline
// analysis for a single file).
//
// Usage:
//
//	inlinesearch [flags] file.minc
//	inlinesearch -link [flags] a.minc b.minc ...
//	inlinesearch -relink script [flags] a.minc b.minc ...
//
//	-max-space N        abort if the recursive space exceeds N evaluations
//	                    (default 2^20; with -link the bound is per component)
//	-jobs N             parallel subtree evaluations (default GOMAXPROCS;
//	                    results are bit-identical for every value)
//	-dot                print optimal-vs-heuristic call graphs as DOT
//	-tree               print the materialized inlining tree (Figure 6)
//	-link               link all argument files into one module (LTO-style)
//	                    and run the component-sharded optimal search on it
//	-relink script      replay an edit script of patch, search and tune
//	                    steps against an incremental re-link session (see
//	                    README "Incremental re-link")
//
// Shared flags (see README "Checked mode is the reference" for -check):
//
//	-target x86|wasm    size model (default x86)
//	-link-dup p         duplicate exported symbols: error (default) or rename
//	-check              run the reference evaluator; stdout is byte-identical
//	-cache-dir d        persist the per-function content cache in directory d
//	-cpuprofile f       write a CPU profile to f
//	-memprofile f       write a heap profile to f at exit
//
// stdout carries only answers; evaluation counters, cache statistics and
// the checked-mode verdict go to stderr.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"optinline/internal/callgraph"
	"optinline/internal/cli"
	"optinline/internal/compile"
	"optinline/internal/heuristic"
	"optinline/internal/link"
	"optinline/internal/search"
	"optinline/internal/source"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "inlinesearch:", err)
		os.Exit(1)
	}
}

func run() error {
	dot := flag.Bool("dot", false, "print DOT call graphs (optimal vs heuristic)")
	tree := flag.Bool("tree", false, "print the materialized inlining tree (paper Figure 6)")
	f := cli.New("inlinesearch", flag.CommandLine)
	f.AddTarget()
	f.AddMaxSpace(1<<20, "abort beyond this many evaluations")
	f.AddJobs(0, "parallel subtree evaluations (0 = GOMAXPROCS)")
	f.AddCheck("reference evaluator: every configuration compiled fresh and verified after every inline step and opt pass")
	f.AddCacheDir()
	f.AddProfile()
	f.AddLink("link all argument files into one module and search it component-sharded")
	f.AddRelink()
	flag.Parse()
	if err := f.Start(); err != nil {
		return err
	}
	defer f.Finish()
	switch {
	case f.Relink != "":
		return f.Replay(os.Stdout)
	case f.Link:
		return runLink(f)
	}

	mod, err := source.Load(flag.Arg(0))
	if err != nil {
		return err
	}
	comp := compile.NewWithOptions(mod, f.Target, f.CompileOptions())
	g := comp.Graph()
	fmt.Printf("%s: %d functions, %d inlinable call sites\n", flag.Arg(0), len(g.Nodes), len(g.Edges))
	fmt.Printf("naive space: 2^%.0f configurations\n", search.NaiveSpaceLog2(g))
	rec, capped := search.RecursiveSpaceSize(g, f.MaxSpace)
	if capped {
		return fmt.Errorf("recursive space exceeds %d evaluations; raise -max-space", f.MaxSpace)
	}
	fmt.Printf("recursively partitioned space: %d evaluations (2^%.1f)\n", rec, math.Log2(float64(rec)))

	res, ok := search.Optimal(comp, search.Options{Workers: f.Jobs, MaxSpace: f.MaxSpace})
	if !ok {
		return fmt.Errorf("search aborted")
	}
	noInline := comp.Size(callgraph.NewConfig())
	hc := heuristic.OsConfig(comp.Module(), g)
	heurSize := comp.Size(hc)

	fmt.Printf("\nno inlining:    %6d bytes\n", noInline)
	fmt.Printf("-Os heuristic:  %6d bytes (%.1f%% of optimal)\n", heurSize, pct(heurSize, res.Size))
	fmt.Printf("optimal:        %6d bytes, inlining %d of %d sites\n", res.Size, res.Config.InlineCount(), len(g.Edges))
	fmt.Printf("optimal inline sites: %v\n", res.Config.InlineSites())

	matrix := callgraph.Agreement(g.Sites(), res.Config, hc)
	fmt.Printf("agreement optimal-vs-heuristic: both-no %d, heur-only %d, opt-only %d, both %d\n",
		matrix[0][0], matrix[0][1], matrix[1][0], matrix[1][1])

	cli.Stat("evaluations", res.Evaluations)
	cli.Stat("config cache", comp.ConfigCacheStats())
	cli.Stat("function cache", comp.FuncCacheStats())
	if comp.Checked() {
		if err := comp.CheckFailure(); err != nil {
			return fmt.Errorf("invariant violation during search: %w", err)
		}
		cli.Stat("checked mode", fmt.Sprintf("all %d evaluations passed per-step verification", comp.Evaluations()))
	}

	if *dot {
		fmt.Println()
		fmt.Println(g.SideBySideDOT(flag.Arg(0), "optimal", res.Config, "heuristic", hc))
	}
	if *tree {
		root, err := search.BuildTree(g, 1<<12)
		if err != nil {
			fmt.Printf("\ninlining tree: %v (too large to materialize)\n", err)
		} else {
			fmt.Printf("\ninlining tree (Figure 6 view):\n%s", root.String())
		}
	}
	return nil
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b) * 100
}

// runLink links the argument files and runs the component-sharded optimal
// search (with -check, the merged reference). stdout is mode-independent;
// counters go to stderr.
func runLink(f *cli.Flags) error {
	l, err := link.New(f.Units(), link.Options{DupExported: f.Dup})
	if err != nil {
		return err
	}
	pl := l.Plan()
	cli.SearchPlan(os.Stdout, pl)
	res, ok, err := l.OptimalSearch(f.SearchOptions())
	if err != nil {
		return err
	}
	if !ok {
		return cli.Capped(res, f.MaxSpace)
	}
	cli.SearchReport(os.Stdout, pl, res)
	cli.Stat("evaluations", res.Evaluations)
	cli.Stat("config cache", res.ConfigCache)
	cli.Stat("function cache", res.FuncCache)
	return nil
}
