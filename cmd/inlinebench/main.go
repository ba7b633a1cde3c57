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
//
// Shared flags (see README "Checked mode is the reference" for -check):
//
//	-check        run the reference evaluator (slow; linked-case is the
//	              exhaustive merged reference over 456,360 evaluations)
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
	"strings"
	"time"

	"optinline/internal/cli"
	"optinline/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "inlinebench:", err)
		os.Exit(1)
	}
}

func run() error {
	f := cli.New("inlinebench", flag.CommandLine)
	var (
		exp      = flag.String("exp", "all", "experiment id or 'all'")
		list     = flag.Bool("list", false, "list experiment IDs")
		scale    = flag.Float64("scale", 1.0, "workload scale")
		spaceCap = flag.Uint64("cap", 1<<14, "recursive-space cap for exhaustive experiments")
	)
	f.AddRounds(4, "autotuning rounds")
	f.AddJobs(0, "parallel jobs (0 = GOMAXPROCS)")
	f.AddCacheDir()
	f.AddCheck("reference evaluator: every configuration compiled fresh and verified (slow)")
	f.AddProfile()
	flag.Parse()
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	}
	if err := f.Start(); err != nil {
		return err
	}
	defer f.Finish()

	start := time.Now()
	h := experiments.NewHarness(experiments.Config{
		Scale:         *scale,
		Workers:       f.Jobs,
		ExhaustiveCap: *spaceCap,
		Rounds:        f.Rounds,
		Checked:       f.Check,
		FnCache:       f.FnCache,
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
	cli.Stat("config cache", h.ConfigCacheStats())
	cli.Stat("function cache", h.FuncCacheStats())
	cli.Stat("delta engine", h.DeltaStats())
	cli.Stat("cycle pricer", h.CycleStats())
	cli.Stat("total time", time.Since(start).Round(time.Millisecond))
	if f.Check {
		if fails := h.CheckFailures(); len(fails) > 0 {
			for _, fail := range fails {
				fmt.Fprintln(os.Stderr, "check:", fail)
			}
			return fmt.Errorf("checked mode: %d file(s) hit invariant violations", len(fails))
		}
		cli.Stat("checked mode", "no invariant violations")
	}
	return nil
}
