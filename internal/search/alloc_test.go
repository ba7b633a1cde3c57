package search

import (
	"runtime"
	"testing"

	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/graph"
	"optinline/internal/lang"
)

// allocsPerEval bounds a warm search's allocations per evaluation, and
// countAllocs a space count's beyond one per memo entry.
const (
	allocsPerEval = 2.5
	countAllocs   = 64
)

// TestWalkAllocatesPerSearch: a sequential Optimal over a generated
// module, on fresh compilers whose content cache an earlier search has
// warmed, allocates at most a small constant per evaluation — the
// whole-config table's key and in-flight record, its amortized growth and
// the space count's memo keys — and nothing per tree node: edge lists,
// labels, handles and their overlays come from the walker, closures are
// walked on pooled scratch and children are called, not scheduled. Not
// checked under the race detector, whose pools drop their items.
func TestWalkAllocatesPerSearch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's pools drop their items")
	}
	mod, err := lang.Compile("walk", lang.GenerateSource(1, lang.GenOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	fc := compile.NewFnCache()
	opts := Options{Workers: -1, MaxSpace: searchCorpusCap}
	if _, ok := Optimal(compile.NewWithOptions(mod, codegen.TargetX86, compile.Options{FnCache: fc}), opts); !ok {
		t.Fatal("space over the cap")
	}
	const runs = 4
	var cs []*compile.Compiler
	for i := 0; i < runs; i++ {
		cs = append(cs, compile.NewWithOptions(mod, codegen.TargetX86, compile.Options{FnCache: fc}))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, c := range cs {
		Optimal(c, opts)
	}
	runtime.ReadMemStats(&after)
	var evals int64
	for _, c := range cs {
		if c.FuncCacheStats().Misses != 0 {
			t.Fatalf("a search on a warm content cache compiled %d closures", c.FuncCacheStats().Misses)
		}
		evals += c.Evaluations()
	}
	perEval := float64(after.Mallocs-before.Mallocs) / float64(evals)
	t.Logf("%d evaluations per search, %.2f allocations per evaluation", evals/runs, perEval)
	if perEval > allocsPerEval {
		t.Fatalf("%.2f allocations per evaluation, more than %.1f", perEval, allocsPerEval)
	}

	// The space count, a small part of that, allocates its memo's keys and
	// a constant besides.
	mg := cs[0].Graph().Undirected()
	sc := spaceCounter{sel: selectPartitionEdge, memo: make(map[string]uint64), s: new(graph.Scratch)}
	sc.count(mg.Edges)
	allocs := testing.AllocsPerRun(runs, func() { countSpace(mg, 0, selectPartitionEdge) })
	t.Logf("the count allocates %.0f objects for %d memo entries", allocs, len(sc.memo))
	if allocs > float64(len(sc.memo)+countAllocs) {
		t.Fatalf("the count allocated %.0f objects for %d memo entries", allocs, len(sc.memo))
	}
}
