package search

import (
	"testing"

	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/workload"
)

// TestParallelSearchDeterminism: on the seed corpus, the parallel search
// must return byte-identical best configurations, sizes, and space-size
// accounting — and, thanks to single-flight compile caches, identical
// evaluation counts — for every worker count, including the sequential
// recursion (Workers < 0).
func TestParallelSearchDeterminism(t *testing.T) {
	const spaceCap = 1 << 10
	p := workload.Profile{
		Name: "determinism", Files: 10, TotalEdges: 70,
		ConstArgProb: 0.4, HubProb: 0.25, BigBodyProb: 0.25, LoopProb: 0.4,
		RecProb: 0.1, BranchProb: 0.5, MultiRootPct: 0.15,
	}
	checked := 0
	for _, f := range workload.Generate(p).Files {
		probe := compile.New(f.Module, codegen.TargetX86)
		if len(probe.Graph().Edges) == 0 {
			continue
		}
		if _, capped := RecursiveSpaceSize(probe.Graph(), spaceCap); capped {
			continue
		}
		type run struct {
			jobs int
			res  Result
		}
		var runs []run
		for _, jobs := range []int{-1, 1, 2, 8} {
			c := compile.New(f.Module, codegen.TargetX86)
			res, ok := Optimal(c, Options{Workers: jobs, MaxSpace: spaceCap})
			if !ok {
				t.Fatalf("%s jobs=%d: search aborted", f.Name, jobs)
			}
			runs = append(runs, run{jobs, res})
		}
		base := runs[0]
		for _, r := range runs[1:] {
			if got, want := r.res.Config.Key(), base.res.Config.Key(); got != want {
				t.Fatalf("%s: jobs=%d best config %q != sequential %q",
					f.Name, r.jobs, got, want)
			}
			if r.res.Size != base.res.Size {
				t.Fatalf("%s: jobs=%d size %d != sequential %d",
					f.Name, r.jobs, r.res.Size, base.res.Size)
			}
			if r.res.SpaceSize != base.res.SpaceSize {
				t.Fatalf("%s: jobs=%d space %d != sequential %d",
					f.Name, r.jobs, r.res.SpaceSize, base.res.SpaceSize)
			}
			if r.res.Evaluations != base.res.Evaluations {
				t.Fatalf("%s: jobs=%d evaluations %d != sequential %d",
					f.Name, r.jobs, r.res.Evaluations, base.res.Evaluations)
			}
		}
		checked++
	}
	if checked < 3 {
		t.Fatalf("only %d files searchable under the cap; corpus too hostile", checked)
	}
}

// TestParallelSearchDeterminismMemoOff repeats the check on a checked
// compiler, whose memoized compile path is off, isolating the search-level
// merge determinism from the cache-level single-flight determinism.
func TestParallelSearchDeterminismMemoOff(t *testing.T) {
	p := workload.Profile{
		Name: "determinism", Files: 4, TotalEdges: 30,
		ConstArgProb: 0.4, HubProb: 0.25, BigBodyProb: 0.25, LoopProb: 0.4,
		RecProb: 0.1, BranchProb: 0.5, MultiRootPct: 0.15,
	}
	for _, f := range workload.Generate(p).Files {
		probe := compile.New(f.Module, codegen.TargetX86)
		if len(probe.Graph().Edges) == 0 {
			continue
		}
		if _, capped := RecursiveSpaceSize(probe.Graph(), 1<<9); capped {
			continue
		}
		var ref *Result
		for _, jobs := range []int{-1, 8} {
			c := compile.NewWithOptions(f.Module, codegen.TargetX86, compile.Options{Check: true})
			res, ok := Optimal(c, Options{Workers: jobs, MaxSpace: 1 << 9})
			if !ok {
				t.Fatalf("%s jobs=%d: search aborted", f.Name, jobs)
			}
			if ref == nil {
				ref = &res
				continue
			}
			if res.Config.Key() != ref.Config.Key() || res.Size != ref.Size ||
				res.Evaluations != ref.Evaluations {
				t.Fatalf("%s: memo-off jobs=%d diverged from sequential", f.Name, jobs)
			}
		}
	}
}
