package search

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/graph"
	"optinline/internal/ir"
	"optinline/internal/lang"
	"optinline/internal/workload"
)

// pathGraph builds the undirected view of a call-graph path with n edges.
func pathGraph(n int) *graph.Multigraph {
	mg := &graph.Multigraph{N: n + 1}
	for i := 0; i < n; i++ {
		mg.Edges = append(mg.Edges, graph.Edge{ID: i + 1, U: i, V: i + 1})
	}
	return mg
}

func TestCountSpaceBasics(t *testing.T) {
	// No edges: a single leaf.
	if n, _ := countSpace(&graph.Multigraph{N: 3}, 0, selectPartitionEdge); n != 1 {
		t.Fatalf("empty graph count=%d", n)
	}
	// One edge: both labels, two evaluations (== naive).
	if n, _ := countSpace(pathGraph(1), 0, selectPartitionEdge); n != 2 {
		t.Fatalf("single edge count=%d", n)
	}
	// Two-edge path: no reduction possible, equals naive 4.
	if n, _ := countSpace(pathGraph(2), 0, selectPartitionEdge); n != 4 {
		t.Fatalf("P2 count=%d", n)
	}
}

func TestCountSpacePathReduction(t *testing.T) {
	// The paper's Figure 5 shape: a 5-edge path. One-level partitioning
	// gives 25 (vs naive 32); recursive partitioning does at least as well.
	n, capped := countSpace(pathGraph(5), 0, selectPartitionEdge)
	if capped {
		t.Fatal("unexpected cap")
	}
	if n >= 32 {
		t.Fatalf("no reduction on P5: %d", n)
	}
	// Longer paths: reduction grows to orders of magnitude.
	n10, _ := countSpace(pathGraph(10), 0, selectPartitionEdge)
	if n10 >= 200 { // naive is 1024
		t.Fatalf("P10 count=%d, expected large reduction", n10)
	}
}

func TestCountSpaceComponents(t *testing.T) {
	// Figure 4 shape: components with 2 edges and 1 edge.
	mg := &graph.Multigraph{N: 5, Edges: []graph.Edge{
		{ID: 1, U: 0, V: 1}, {ID: 2, U: 1, V: 2}, // F->G->K
		{ID: 3, U: 3, V: 4}, // H->L
	}}
	n, _ := countSpace(mg, 0, selectPartitionEdge)
	// Components explored independently (4 + 2) plus one combine.
	if n != 7 {
		t.Fatalf("components count=%d, want 7", n)
	}
}

func TestCountSpaceCap(t *testing.T) {
	n, capped := countSpace(pathGraph(30), 100, selectPartitionEdge)
	if !capped || n <= 100 {
		t.Fatalf("cap not honoured: n=%d capped=%v", n, capped)
	}
}

// countSpacePlain is countSpace without the memo: the recursion it must
// reproduce exactly, capped counts included.
func countSpacePlain(mg *graph.Multigraph, limit uint64, sel selector) (uint64, bool) {
	if len(mg.Edges) == 0 {
		return 1, false
	}
	over := func(n uint64) bool { return limit > 0 && n > limit }
	if subs := edgeComponents(new(graph.Scratch), mg); subs != nil {
		total := uint64(1)
		for i := range subs {
			n, capped := countSpacePlain(&subs[i], limit, sel)
			total += n
			if capped || over(total) {
				return total, true
			}
		}
		return total, false
	}
	e := sel(new(graph.Scratch), mg)
	n1, c1 := countSpacePlain(mg.RemoveEdge(e.ID), limit, sel)
	if c1 || over(n1) {
		return n1, true
	}
	n2, c2 := countSpacePlain(mg.ContractEdge(e.ID), limit, sel)
	total := n1 + n2
	return total, c2 || over(total)
}

// TestCountSpaceMemoMatchesPlainRecursion: the memoized count returns the
// plain recursion's (count, capped) pair exactly — under every selector,
// with and without a cap small enough to trip — on random multigraphs
// (parallel edges and self-loops included) and on every file of a scaled
// corpus, capped at a size the plain recursion can afford.
func TestCountSpaceMemoMatchesPlainRecursion(t *testing.T) {
	check := func(name string, mg *graph.Multigraph, limit uint64, sel selector) {
		t.Helper()
		n, capped := countSpace(mg, limit, sel)
		pn, pcapped := countSpacePlain(mg, limit, sel)
		if n != pn || capped != pcapped {
			t.Fatalf("%s (limit %d): memoized (%d, %v) != plain (%d, %v)", name, limit, n, capped, pn, pcapped)
		}
	}
	selectors := map[string]selector{
		"paper":  selectPartitionEdge,
		"first":  Selector(SelectFirstEdge).scratchless(),
		"lowest": Selector(SelectLowestID).scratchless(),
	}
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		mg := randomMultigraph(rng)
		for name, sel := range selectors {
			for _, limit := range []uint64{0, 1, 7, 40} {
				check(fmt.Sprintf("trial %d/%s", trial, name), mg, limit, sel)
			}
		}
	}

	const spaceCap = 1 << 14
	files, capped := 0, 0
	for _, p := range workload.SPECProfiles() {
		p.Files = max(1, p.Files/4)
		p.TotalEdges = max(1, p.TotalEdges/4)
		for _, f := range workload.Generate(p).Files {
			mg := callgraph.Build(f.Module).Undirected()
			check(f.Name, mg, spaceCap, selectPartitionEdge)
			files++
			if _, c := countSpace(mg, spaceCap, selectPartitionEdge); c {
				capped++
			}
		}
	}
	if files < 20 || capped == 0 || capped == files {
		t.Fatalf("corpus shape: %d files, %d capped; want both capped and uncapped files", files, capped)
	}
}

func TestSelectPartitionEdgePrefersCentralBridge(t *testing.T) {
	// P5: the central bridges have the least-eccentric endpoints.
	e := SelectPartitionEdge(pathGraph(5))
	if e.ID == 1 || e.ID == 5 {
		t.Fatalf("picked peripheral bridge %d", e.ID)
	}
}

func TestSelectPartitionEdgeNoBridges(t *testing.T) {
	// A directed triangle plus an extra parallel edge: no bridges.
	mg := &graph.Multigraph{N: 3, Edges: []graph.Edge{
		{ID: 1, U: 0, V: 1}, {ID: 2, U: 0, V: 2}, {ID: 3, U: 1, V: 2}, {ID: 4, U: 2, V: 0},
	}}
	if len(new(graph.Scratch).Bridges(mg.Edges)) != 0 {
		t.Fatal("test graph should have no bridges")
	}
	e := SelectPartitionEdge(mg)
	// Node 0 has the highest out-degree (2); of its heads, node 1 has
	// in-degree 1 vs node 2's 2, so edge 1 is selected.
	if e.ID != 1 {
		t.Fatalf("selected edge %d, want 1", e.ID)
	}
}

// --- exactness of the recursive search -------------------------------------

// randomModule generates a module whose call graph has assorted shapes:
// chains, shared callees, diamonds, recursion, constant and non-constant
// arguments, branchy callees that fold under constant propagation.
func randomModule(rng *rand.Rand) *ir.Module {
	m := ir.NewModule("rs")
	m.AddGlobal("state")
	n := 3 + rng.Intn(5)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("fn%d", i)
	}
	for i := n - 1; i >= 0; i-- {
		exported := rng.Intn(4) == 0
		b := ir.NewFunction(names[i], 1, exported)
		x := b.Param(0)
		v := x
		// A branchy prologue that folds if x is a known constant.
		if rng.Intn(2) == 0 {
			c := b.Const(int64(rng.Intn(3)))
			cond := b.Bin(ir.Eq, x, c)
			tB, fB, jB := b.Block("", 0), b.Block("", 0), b.Block("", 1)
			b.CondBr(cond, tB, nil, fB, nil)
			b.SetBlock(tB)
			t1 := b.Const(7)
			b.Br(jB, t1)
			b.SetBlock(fB)
			f1 := b.Bin(ir.Mul, x, x)
			f2 := b.Bin(ir.Add, f1, x)
			b.Br(jB, f2)
			b.SetBlock(jB)
			v = jB.Params[0]
		}
		ncalls := rng.Intn(3)
		for c := 0; c < ncalls && i < n-1; c++ {
			callee := names[i+1+rng.Intn(n-i-1)]
			var arg *ir.Value
			if rng.Intn(2) == 0 {
				arg = b.Const(int64(rng.Intn(4)))
			} else {
				arg = v
			}
			r := b.Call(callee, arg)
			v = b.Bin(ir.Add, v, r)
		}
		if rng.Intn(3) == 0 {
			b.StoreG("state", v)
		}
		b.Ret(v)
		m.AddFunc(b.Fn)
	}
	b := ir.NewFunction("main", 1, true)
	x := b.Param(0)
	acc := b.Const(0)
	for c := 0; c < 1+rng.Intn(3); c++ {
		r := b.Call(names[rng.Intn(n)], x)
		acc = b.Bin(ir.Add, acc, r)
	}
	b.Output(acc)
	b.Ret(acc)
	m.AddFunc(b.Fn)
	m.AssignSites()
	return m
}

// TestRecursiveSearchIsExact is the central theorem check: the recursively
// partitioned search finds the same optimal size as brute force.
func TestRecursiveSearchIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2022))
	trials := 0
	for trials < 25 {
		m := randomModule(rng)
		c := compile.New(m, codegen.TargetX86)
		e := len(c.Graph().Edges)
		if e == 0 || e > 10 {
			continue
		}
		trials++
		_, naiveSize := NaiveOptimal(c)
		res, ok := Optimal(c, Options{})
		if !ok {
			t.Fatalf("trial %d: search aborted", trials)
		}
		if res.Size != naiveSize {
			t.Fatalf("trial %d: recursive optimum %d != naive optimum %d\nmodule:\n%s",
				trials, res.Size, naiveSize, m.String())
		}
		// And the returned configuration must actually produce that size.
		if got := c.Size(res.Config); got != res.Size {
			t.Fatalf("trial %d: config size %d != reported %d", trials, got, res.Size)
		}
	}
}

// TestPrunedSearchDifferentialFuzz: on MinC programs from the generator, the
// recursive search — which prunes the naive 2^E space by partitioning — loses
// no optimum. The parallel search agrees with the sequential recursion on a
// fresh compiler in size, configuration and evaluation count; the reference
// evaluator (a checked compiler: fresh compile, verified) prices the returned
// configuration to the reported size; and where the graph is small enough for
// brute force, the optimum is the best of all 2^E configurations. A whole
// checked-mode search per program would cost about a hundred times the
// default one; TestOptimalDeltaMatchesNoDelta runs that comparison on random
// modules.
func TestPrunedSearchDifferentialFuzz(t *testing.T) {
	// Big enough that most generated programs are searchable, small enough
	// that the brute-force side stays affordable under -race.
	const maxSpace = 1 << 12
	// Walk seeds until 30 generated programs have actually been searched
	// (graphs that are empty or blow the space cap do not count).
	checked := 0
	for seed := int64(1); seed <= 200 && checked < 30; seed++ {
		src := lang.GenerateSource(seed, lang.GenOptions{})
		mod, err := lang.Compile(fmt.Sprintf("prunefuzz%03d", seed), src)
		if err != nil {
			t.Fatalf("seed %d: generated source does not lower: %v\n%s", seed, err, src)
		}
		c := compile.New(mod, codegen.TargetX86)
		e := len(c.Graph().Edges)
		if e == 0 {
			continue
		}
		res, ok := Optimal(c, Options{MaxSpace: maxSpace})
		if !ok {
			continue
		}
		checked++

		cs := compile.New(mod, codegen.TargetX86)
		rs, okS := Optimal(cs, Options{MaxSpace: maxSpace, Workers: -1})
		if !okS {
			t.Fatalf("seed %d: sequential search aborted under the same space cap", seed)
		}
		if res.Size != rs.Size || res.SpaceSize != rs.SpaceSize {
			t.Fatalf("seed %d: parallel (%d, space %d) != sequential (%d, space %d)\n%s",
				seed, res.Size, res.SpaceSize, rs.Size, rs.SpaceSize, src)
		}
		if res.Config.Key() != rs.Config.Key() {
			t.Fatalf("seed %d: parallel config {%s} != sequential config {%s}",
				seed, res.Config.Key(), rs.Config.Key())
		}
		if res.Evaluations != rs.Evaluations {
			t.Fatalf("seed %d: parallel search evaluated %d configurations, sequential %d",
				seed, res.Evaluations, rs.Evaluations)
		}

		ref := compile.NewWithOptions(mod, codegen.TargetX86, compile.Options{Check: true})
		if got := ref.Size(res.Config); got != res.Size {
			t.Fatalf("seed %d: reference evaluator prices the optimum to %d, search reported %d",
				seed, got, res.Size)
		}
		if err := ref.CheckFailure(); err != nil {
			t.Fatalf("seed %d: checked compile of the optimum: %v", seed, err)
		}

		if e > 12 {
			continue
		}
		cb := compile.New(mod, codegen.TargetX86)
		_, bestSize := NaiveOptimal(cb)
		if res.Size != bestSize {
			t.Fatalf("seed %d: search optimum %d != brute-force optimum %d (E=%d)\n%s",
				seed, res.Size, bestSize, e, src)
		}
		// Brute force enumerates in a different order, so only the size is
		// canonical; still, the returned config must price to it.
		if got := cb.Size(res.Config); got != bestSize {
			t.Fatalf("seed %d: search config prices to %d, brute force found %d", seed, got, bestSize)
		}
	}
	if checked < 30 {
		t.Fatalf("fuzz corpus too small: only %d programs searched", checked)
	}
}

func TestOptimalParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		m := randomModule(rng)
		cs := compile.New(m, codegen.TargetX86)
		cp := compile.New(m, codegen.TargetX86)
		rs, ok1 := Optimal(cs, Options{})
		rp, ok2 := Optimal(cp, Options{Workers: 8})
		if !ok1 || !ok2 || rs.Size != rp.Size {
			t.Fatalf("trial %d: sequential %d vs parallel %d", trial, rs.Size, rp.Size)
		}
	}
}

// TestReturnedConfigIsTheCallers: Optimal and OptimalCompletion hand out
// a configuration of the caller's own, not one the search tree shares.
// Mutating it leaves a repeated search, on the same compiler and its warm
// caches, with the same answer, and leaves the decided labels a
// completion started from as they were.
func TestReturnedConfigIsTheCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		m := randomModule(rng)
		c := compile.New(m, codegen.TargetX86)
		sites := c.Graph().Sites()
		for _, workers := range []int{-1, 4} {
			first, _ := Optimal(c, Options{Workers: workers})
			want := first.Config.String()
			for _, s := range sites {
				first.Config.Set(s, !first.Config.Inline(s))
			}
			again, _ := Optimal(c, Options{Workers: workers})
			if again.Config.String() != want || again.Size != first.Size {
				t.Fatalf("trial %d: repeated search found %v (%d), first %s (%d)", trial, again.Config, again.Size, want, first.Size)
			}
		}
		decided := callgraph.NewConfig()
		for _, sub := range ComponentSubgraphs(c.Graph()) {
			before := decided.String()
			got, size := OptimalCompletion(c, sub, decided, Options{})
			want := got.String()
			for _, s := range sites {
				got.Set(s, !got.Inline(s))
			}
			again, againSize := OptimalCompletion(c, sub, decided, Options{})
			if again.String() != want || againSize != size {
				t.Fatalf("trial %d: repeated completion found %v (%d), first %s (%d)", trial, again, againSize, want, size)
			}
			if decided.String() != before {
				t.Fatalf("trial %d: completion changed its decided labels", trial)
			}
			decided.Merge(again)
		}
	}
}

func TestOptimalRespectsMaxSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var c *compile.Compiler
	for {
		m := randomModule(rng)
		c = compile.New(m, codegen.TargetX86)
		if len(c.Graph().Edges) >= 4 {
			break
		}
	}
	_, ok := Optimal(c, Options{MaxSpace: 2})
	if ok {
		t.Fatal("expected abort under tiny MaxSpace")
	}
}

func TestSpaceSizeOrdering(t *testing.T) {
	// Recursive space never exceeds ... it can exceed naive on degenerate
	// graphs (documented), but on structured graphs with >= 3 edges per
	// component it should not blow past naive by more than the combine
	// overhead. Check the reduction on random structured modules.
	rng := rand.New(rand.NewSource(123))
	better := 0
	total := 0
	for trial := 0; trial < 30; trial++ {
		m := randomModule(rng)
		c := compile.New(m, codegen.TargetX86)
		g := c.Graph()
		e := len(g.Edges)
		if e < 4 || e > 16 {
			continue
		}
		total++
		rec, capped := RecursiveSpaceSize(g, 0)
		if capped {
			t.Fatal("unexpected cap")
		}
		if rec <= 1<<uint(e) {
			better++
		}
	}
	if total == 0 {
		t.Skip("no graphs in range")
	}
	if better*10 < total*8 {
		t.Fatalf("recursive space larger than naive too often: %d/%d", total-better, total)
	}
}

func TestNaiveSpaceSizes(t *testing.T) {
	m := randomModule(rand.New(rand.NewSource(1)))
	c := compile.New(m, codegen.TargetX86)
	g := c.Graph()
	e := len(g.Edges)
	if got := NaiveSpaceLog2(g); got != float64(e) {
		t.Fatalf("log2=%v want %d", got, e)
	}
	if NaiveSpaceSize(g).BitLen() != e+1 {
		t.Fatalf("2^%d bitlen wrong", e)
	}
	cs := ComponentSpaceSize(g)
	if cs.Cmp(NaiveSpaceSize(g)) > 0 {
		t.Fatal("component space exceeds naive")
	}
}

func TestChainLengths(t *testing.T) {
	src := `
func @a(%x) {
entry:
  %r = call @b(%x) !site 1
  ret %r
}
func @b(%x) {
entry:
  %r = call @c(%x) !site 2
  ret %r
}
func @c(%x) {
entry:
  ret %x
}
func @d(%x) {
entry:
  %r = call @c(%x) !site 3
  ret %r
}
export func @main(%x) {
entry:
  %p = call @a(%x) !site 4
  %q = call @d(%x) !site 5
  %s = add %p, %q
  ret %s
}
`
	m := ir.MustParse("chains", src)
	g := callgraph.Build(m)

	// Chain a->b->c inlined (sites 1,2) plus isolated d->c (site 3):
	cfg := callgraph.NewConfig().Set(1, true).Set(2, true).Set(3, true)
	lengths := ChainLengths(g, cfg)
	if len(lengths) != 2 || lengths[0] != 1 || lengths[1] != 2 {
		t.Fatalf("lengths=%v, want [1 2]", lengths)
	}
	hist := ChainHistogram(lengths)
	if hist[1] != 1 || hist[2] != 1 {
		t.Fatalf("hist=%v", hist)
	}
	if got := ChainLengths(g, callgraph.NewConfig()); got != nil {
		t.Fatalf("clean slate should have no chains, got %v", got)
	}
}

func TestChainLengthsSelfLoop(t *testing.T) {
	src := `
func @r(%x) {
entry:
  %zero = const 0
  %c = le %x, %zero
  condbr %c, done, more
done:
  ret %zero
more:
  %one = const 1
  %m = sub %x, %one
  %v = call @r(%m) !site 1
  ret %v
}
export func @main(%x) {
entry:
  %v = call @r(%x) !site 2
  ret %v
}
`
	m := ir.MustParse("self", src)
	g := callgraph.Build(m)
	cfg := callgraph.NewConfig().Set(1, true)
	lengths := ChainLengths(g, cfg)
	if len(lengths) != 1 || lengths[0] != 1 {
		t.Fatalf("self-loop chain lengths=%v, want [1]", lengths)
	}
}

// --- edgeComponents: parallel edges, self-loops, split invariants ----------

func edgeIDSet(mg *graph.Multigraph) []int { return mg.EdgeIDs() }

func TestEdgeComponentsParallelEdges(t *testing.T) {
	// Two parallel edges between 0-1 plus an unrelated component 2-3.
	mg := &graph.Multigraph{N: 4, Edges: []graph.Edge{
		{ID: 1, U: 0, V: 1},
		{ID: 2, U: 1, V: 0}, // parallel, opposite stored orientation
		{ID: 3, U: 2, V: 3},
	}}
	subs := edgeComponents(new(graph.Scratch), mg)
	if len(subs) != 2 {
		t.Fatalf("got %d components, want 2", len(subs))
	}
	got0, got1 := edgeIDSet(&subs[0]), edgeIDSet(&subs[1])
	if fmt.Sprint(got0) != "[1 2]" || fmt.Sprint(got1) != "[3]" {
		t.Fatalf("component edge IDs = %v / %v, want [1 2] / [3]", got0, got1)
	}
}

func TestEdgeComponentsSelfLoops(t *testing.T) {
	// A self-loop is a one-node component with an edge; an isolated node
	// must not produce a component.
	mg := &graph.Multigraph{N: 3, Edges: []graph.Edge{
		{ID: 7, U: 1, V: 1},
		{ID: 9, U: 0, V: 2},
	}}
	subs := edgeComponents(new(graph.Scratch), mg)
	if len(subs) != 2 {
		t.Fatalf("got %d components, want 2", len(subs))
	}
	// Ordering is by smallest contained node: {0,2} before {1}.
	if fmt.Sprint(edgeIDSet(&subs[0])) != "[9]" || fmt.Sprint(edgeIDSet(&subs[1])) != "[7]" {
		t.Fatalf("component edge IDs = %v / %v, want [9] / [7]",
			edgeIDSet(&subs[0]), edgeIDSet(&subs[1]))
	}
	// A self-loop alone is a single edge-bearing component: no split.
	loop := &graph.Multigraph{N: 2, Edges: []graph.Edge{{ID: 3, U: 0, V: 0}}}
	if subs := edgeComponents(new(graph.Scratch), loop); subs != nil {
		t.Fatalf("self-loop-only graph split unexpectedly: %v", subs)
	}
}

// randomMultigraph samples a multigraph with duplicate endpoints and
// self-loops allowed; edge IDs are distinct and dense from 1.
func randomMultigraph(rng *rand.Rand) *graph.Multigraph {
	n := 2 + rng.Intn(7)
	e := rng.Intn(12)
	mg := &graph.Multigraph{N: n}
	for i := 0; i < e; i++ {
		mg.Edges = append(mg.Edges, graph.Edge{ID: i + 1, U: rng.Intn(n), V: rng.Intn(n)})
	}
	return mg
}

// TestSearchSplitsPreserveEdges is the property test behind the space
// accounting: every split the search applies — the components partition,
// RemoveEdge, ContractEdge — preserves the multiset of surviving edge
// identities (site IDs), so no configuration is ever duplicated or lost.
func TestSearchSplitsPreserveEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(2022))
	var walk func(mg *graph.Multigraph, depth int)
	walk = func(mg *graph.Multigraph, depth int) {
		if len(mg.Edges) == 0 || depth > 6 {
			return
		}
		parent := edgeIDSet(mg)
		if subs := edgeComponents(new(graph.Scratch), mg); subs != nil {
			var union []int
			for i := range subs {
				union = append(union, edgeIDSet(&subs[i])...)
			}
			sort.Ints(union)
			if fmt.Sprint(union) != fmt.Sprint(parent) {
				t.Fatalf("components partition lost edges: %v -> %v", parent, union)
			}
			for i := range subs {
				walk(&subs[i], depth+1)
			}
			return
		}
		e := SelectPartitionEdge(mg)
		removed, contracted := mg.RemoveEdge(e.ID), mg.ContractEdge(e.ID)
		want := make([]int, 0, len(parent)-1)
		for _, id := range parent {
			if id != e.ID {
				want = append(want, id)
			}
		}
		if fmt.Sprint(edgeIDSet(removed)) != fmt.Sprint(want) {
			t.Fatalf("RemoveEdge(%d): %v -> %v, want %v", e.ID, parent, edgeIDSet(removed), want)
		}
		if fmt.Sprint(edgeIDSet(contracted)) != fmt.Sprint(want) {
			t.Fatalf("ContractEdge(%d): %v -> %v, want %v", e.ID, parent, edgeIDSet(contracted), want)
		}
		// Contraction must never detach surviving edges from the merged
		// endpoint class: the contracted graph's node universe is unchanged.
		if contracted.N != mg.N {
			t.Fatalf("ContractEdge changed N: %d -> %d", mg.N, contracted.N)
		}
		walk(removed, depth+1)
		walk(contracted, depth+1)
	}
	for trial := 0; trial < 40; trial++ {
		walk(randomMultigraph(rng), 0)
	}
}
