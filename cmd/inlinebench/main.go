// Command inlinebench regenerates the paper's tables and figures against
// the synthetic corpus (see DESIGN.md for the experiment index).
//
// Usage:
//
//	inlinebench [flags]
//
//	-exp id       experiment to run: fig1..fig19, tab1..tab4,
//	              llvm-case, sqlite-case, linked-case, or "all"
//	              (default all); linked-scale is extra-heavy and only
//	              runs when named explicitly
//	-list         list experiment IDs and exit
//	-scale F      workload scale, 1.0 = full corpus (default 1.0)
//	-rounds N     autotuning rounds (default 4)
//	-cap N        recursive-space cap for exhaustive experiments (default 2^14)
//	-jobs N       parallelism: files, subtrees, and experiment cases
//	              (default GOMAXPROCS; -jobs 1 forces a sequential run)
//	-check        run the reference evaluator: every configuration compiled
//	              fresh with IR invariants verified after every inline step
//	              and opt pass, no function cache, delta engines or search
//	              pruning, linked modules solved on one merged compiler
//	              (slow; linked-case is the exhaustive merged reference over
//	              456,360 evaluations)
//	-cache-dir d  persist the content cache in directory d: entries from a
//	              previous run are reused, and this run's are saved back
//	-cpuprofile f write a CPU profile to f
//	-memprofile f write a heap profile to f at exit
//
// Results are bit-identical for every -jobs value, for -check, and for warm
// -cache-dir reruns; the run ends with compile-cache statistics and total
// wall-clock time on stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"optinline/internal/compile"
	"optinline/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "inlinebench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp      = flag.String("exp", "all", "experiment id or 'all'")
		list     = flag.Bool("list", false, "list experiment IDs")
		scale    = flag.Float64("scale", 1.0, "workload scale")
		rounds   = flag.Int("rounds", 4, "autotuning rounds")
		spaceCap = flag.Uint64("cap", 1<<14, "recursive-space cap for exhaustive experiments")
		jobs     = flag.Int("jobs", 0, "parallel jobs (0 = GOMAXPROCS)")
		cacheDir = flag.String("cache-dir", "", "persist the per-function content cache in this directory")
		check    = flag.Bool("check", false, "reference evaluator: every configuration compiled fresh and verified (slow)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
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
				fmt.Fprintln(os.Stderr, "inlinebench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "inlinebench: -memprofile:", err)
			}
		}()
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	}

	start := time.Now()
	fncache, err := compile.OpenFnCache(*cacheDir)
	if err != nil {
		return err
	}
	h := experiments.NewHarness(experiments.Config{
		Scale:         *scale,
		Workers:       *jobs,
		ExhaustiveCap: *spaceCap,
		Rounds:        *rounds,
		Checked:       *check,
		FnCache:       fncache,
	})
	fmt.Fprintf(os.Stderr, "corpus generated in %v\n", time.Since(start).Round(time.Millisecond))

	var results []experiments.Result
	if *exp == "all" {
		results = h.RunAll()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			r, err := h.Run(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			results = append(results, r)
		}
	}
	for _, r := range results {
		fmt.Printf("\n================================================================\n")
		fmt.Printf("%s — %s\n", r.ID, r.Title)
		fmt.Printf("================================================================\n\n")
		fmt.Println(r.Text)
	}
	if *cacheDir != "" {
		if err := fncache.Save(); err != nil {
			fmt.Fprintln(os.Stderr, "inlinebench:", err)
		}
	}
	fmt.Fprintf(os.Stderr, "config cache:    %v\n", h.ConfigCacheStats())
	fmt.Fprintf(os.Stderr, "function cache:  %v\n", h.FuncCacheStats())
	fmt.Fprintf(os.Stderr, "fn content cache: %v\n", h.FnCacheStats())
	fmt.Fprintf(os.Stderr, "delta engine:    %v\n", h.DeltaStats())
	fmt.Fprintf(os.Stderr, "search pruning:  %v\n", h.PruneStats())
	fmt.Fprintf(os.Stderr, "cycle pricer:    %v\n", h.CycleStats())
	fmt.Fprintf(os.Stderr, "total time %v\n", time.Since(start).Round(time.Millisecond))
	if *check {
		if fails := h.CheckFailures(); len(fails) > 0 {
			for _, f := range fails {
				fmt.Fprintln(os.Stderr, "check:", f)
			}
			return fmt.Errorf("checked mode: %d file(s) hit invariant violations", len(fails))
		}
		fmt.Fprintln(os.Stderr, "checked mode: no invariant violations")
	}
	return nil
}
