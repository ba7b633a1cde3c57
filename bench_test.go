package optinline

// Benchmark harness: one Benchmark per table and figure of the paper's
// evaluation (see DESIGN.md section 3 for the experiment index), plus
// micro-benchmarks of the underlying machinery and the ablations DESIGN.md
// calls out. The experiment benches run the same code paths as
// cmd/inlinebench but on a scaled-down corpus so `go test -bench=.`
// finishes in minutes; regenerate the full-scale numbers with the CLI.

import (
	"fmt"
	"testing"

	"optinline/internal/analysis/interproc"
	"optinline/internal/autotune"
	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/experiments"
	"optinline/internal/graph"
	"optinline/internal/heuristic"
	"optinline/internal/inline"
	"optinline/internal/interp"
	"optinline/internal/ir"
	"optinline/internal/mlheur"
	"optinline/internal/search"
	"optinline/internal/workload"
)

// benchExperiment rebuilds a fresh harness every iteration so the measured
// work is real (harnesses memoize aggressively).
func benchExperiment(b *testing.B, id string, cfg experiments.Config) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := experiments.NewHarness(cfg)
		res, err := h.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if res.Text == "" {
			b.Fatal("empty result")
		}
	}
}

var (
	cheapCfg      = experiments.Config{Scale: 0.3, Rounds: 2, ExhaustiveCap: 1 << 10}
	exhaustiveCfg = experiments.Config{Scale: 0.2, Rounds: 2, ExhaustiveCap: 1 << 10}
	tuneCfg       = experiments.Config{Scale: 0.2, Rounds: 2, ExhaustiveCap: 1 << 8}
	caseCfg       = experiments.Config{Scale: 0.1, Rounds: 1, ExhaustiveCap: 1 << 8}
)

func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1", cheapCfg) }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3", cheapCfg) }
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "tab1", cheapCfg) }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7", exhaustiveCfg) }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "tab2", exhaustiveCfg) }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8", exhaustiveCfg) }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9", exhaustiveCfg) }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10", tuneCfg) }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11", tuneCfg) }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12", tuneCfg) }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "tab3", tuneCfg) }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13", tuneCfg) }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14", tuneCfg) }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15", tuneCfg) }
func BenchmarkFig16(b *testing.B)  { benchExperiment(b, "fig16", tuneCfg) }
func BenchmarkFig17(b *testing.B)  { benchExperiment(b, "fig17", tuneCfg) }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "tab4", tuneCfg) }
func BenchmarkFig18(b *testing.B)  { benchExperiment(b, "fig18", tuneCfg) }
func BenchmarkFig19(b *testing.B)  { benchExperiment(b, "fig19", tuneCfg) }

func BenchmarkLLVMCase(b *testing.B)   { benchExperiment(b, "llvm-case", caseCfg) }
func BenchmarkSQLiteCase(b *testing.B) { benchExperiment(b, "sqlite-case", caseCfg) }

func BenchmarkMLGoCase(b *testing.B)    { benchExperiment(b, "mlgo-case", exhaustiveCfg) }
func BenchmarkOutlineCase(b *testing.B) { benchExperiment(b, "outline-case", tuneCfg) }
func BenchmarkPerfCase(b *testing.B)    { benchExperiment(b, "perf-case", tuneCfg) }

// --- micro-benchmarks of the machinery --------------------------------------

// benchFile returns a moderately sized generated translation unit.
func benchFile(edges int) workload.File {
	p := workload.Profile{
		Name: "bench", Files: 1, TotalEdges: edges,
		ConstArgProb: 0.35, HubProb: 0.25, BigBodyProb: 0.25, LoopProb: 0.35,
		RecProb: 0.08, BranchProb: 0.45, MultiRootPct: 0.12,
	}
	return workload.Generate(p).Files[0]
}

// BenchmarkCompileAndMeasureSize measures one full pipeline evaluation
// (clone, inline, optimize, DFE, encode) — the unit of cost every search
// and tuning step pays.
func BenchmarkCompileAndMeasureSize(b *testing.B) {
	f := benchFile(40)
	comp := compile.New(f.Module, codegen.TargetX86)
	hc := heuristic.OsConfig(comp.Module(), comp.Graph())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := comp.Build(hc)
		if err != nil {
			b.Fatal(err)
		}
		if codegen.ModuleSize(m, codegen.TargetX86) == 0 {
			b.Fatal("zero size")
		}
	}
}

func BenchmarkInlineApply(b *testing.B) {
	f := benchFile(40)
	g := callgraph.Build(f.Module)
	cfg := callgraph.NewConfig()
	for i, e := range g.Edges {
		if i%2 == 0 {
			cfg.Set(e.Site, true)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := f.Module.Clone()
		if err := inline.Apply(m, cfg, inline.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModuleClone(b *testing.B) {
	f := benchFile(60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.Module.Clone() == nil {
			b.Fatal("nil clone")
		}
	}
}

func BenchmarkHeuristicDecisions(b *testing.B) {
	f := benchFile(60)
	g := callgraph.Build(f.Module)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if heuristic.OsConfig(f.Module, g).InlineCount() < 0 {
			b.Fatal("impossible")
		}
	}
}

func BenchmarkCallGraphBuild(b *testing.B) {
	f := benchFile(80)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(callgraph.Build(f.Module).Edges) == 0 {
			b.Fatal("no edges")
		}
	}
}

func BenchmarkBridges(b *testing.B) {
	f := benchFile(80)
	mg := callgraph.Build(f.Module).Undirected()
	var s graph.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Bridges(mg.Edges)
	}
}

func BenchmarkOptimalSearch(b *testing.B) {
	// A file small enough to certify each iteration.
	var f workload.File
	for e := 8; ; e++ {
		f = benchFile(e)
		c := compile.New(f.Module, codegen.TargetX86)
		if n, capped := search.RecursiveSpaceSize(c.Graph(), 1<<10); !capped && n >= 64 {
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp := compile.New(f.Module, codegen.TargetX86)
		if _, ok := search.Optimal(comp, search.Options{}); !ok {
			b.Fatal("aborted")
		}
	}
}

func BenchmarkAutotuneRound(b *testing.B) {
	f := benchFile(40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp := compile.New(f.Module, codegen.TargetX86)
		res := autotune.Tune(comp, nil, autotune.Options{Rounds: 1})
		if res.Size <= 0 {
			b.Fatal("no size")
		}
	}
}

// BenchmarkParallelScaling exercises the embarrassingly parallel tuner at
// different worker counts (DESIGN.md ablation 5).
func BenchmarkParallelScaling(b *testing.B) {
	f := benchFile(80)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				comp := compile.New(f.Module, codegen.TargetX86)
				autotune.Tune(comp, nil, autotune.Options{Rounds: 1, Workers: workers})
			}
		})
	}
}

// BenchmarkSearchSequentialVsParallel measures the exhaustive search at
// different worker counts on the same translation unit. A fresh compiler
// per iteration keeps the caches cold, so the measured work is the full
// recursive search. Recorded in BENCH_search.json.
func BenchmarkSearchSequentialVsParallel(b *testing.B) {
	// Pick the generated unit with the largest recursive space that still
	// fits the cap; the scan is bounded so a hostile generator can't hang
	// the benchmark.
	var f workload.File
	var best uint64
	for e := 10; e <= 48; e++ {
		cand := benchFile(e)
		c := compile.New(cand.Module, codegen.TargetX86)
		if n, capped := search.RecursiveSpaceSize(c.Graph(), 1<<12); !capped && n > best {
			f, best = cand, n
		}
	}
	if best == 0 {
		b.Fatal("no searchable unit under the cap")
	}
	b.Logf("unit: %d-evaluation recursive space", best)
	for _, jobs := range []int{-1, 2, 4, 8} {
		name := fmt.Sprintf("jobs=%d", jobs)
		if jobs < 0 {
			name = "sequential"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				comp := compile.New(f.Module, codegen.TargetX86)
				if _, ok := search.Optimal(comp, search.Options{Workers: jobs, MaxSpace: 1 << 12}); !ok {
					b.Fatal("aborted")
				}
			}
		})
	}
}

// BenchmarkSizeCachedVsUncached measures an autotuner-shaped workload — a
// base configuration plus every single-site toggle — priced by the memoized
// Size and by a plain whole-module Build + ModuleSize. With the cache,
// toggling one site only recompiles that site's connected component;
// without it, every probe pays a full whole-module pipeline. Recorded in
// BENCH_search.json.
func BenchmarkSizeCachedVsUncached(b *testing.B) {
	// The memo path pays off when the candidate graph has several
	// components (a toggle recompiles one component, not the module), so
	// scan the generator for the most fragmented unit — the realistic
	// shape: real translation units hold many unrelated call clusters.
	var f workload.File
	bestComps := 0
	for e := 30; e <= 70; e += 4 {
		p := workload.Profile{
			Name: "bench-memo", Files: 4, TotalEdges: e,
			ConstArgProb: 0.35, HubProb: 0.25, BigBodyProb: 0.25, LoopProb: 0.35,
			RecProb: 0.08, BranchProb: 0.45, MultiRootPct: 0.3,
		}
		for _, cand := range workload.Generate(p).Files {
			g := callgraph.Build(cand.Module)
			if len(g.Edges) < 20 {
				continue
			}
			comps := 0 // components with more than one node
			for _, comp := range search.ComponentSubgraphs(g) {
				for _, e := range comp.Edges {
					if e.U != e.V {
						comps++
						break
					}
				}
			}
			if comps > bestComps {
				f, bestComps = cand, comps
			}
		}
	}
	if bestComps == 0 {
		b.Fatal("no multi-component unit found")
	}
	b.Logf("unit: %d edge-bearing components", bestComps)
	probe := compile.New(f.Module, codegen.TargetX86)
	sites := probe.Graph().Sites()
	base := heuristic.OsConfig(probe.Module(), probe.Graph())
	configs := []*callgraph.Config{base}
	for _, s := range sites {
		c := base.Clone()
		c.Set(s, !base.Inline(s))
		configs = append(configs, c)
	}
	run := func(b *testing.B, size func(*compile.Compiler, *callgraph.Config) int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			comp := compile.New(f.Module, codegen.TargetX86)
			for _, cfg := range configs {
				if size(comp, cfg) <= 0 {
					b.Fatal("bad size")
				}
			}
		}
	}
	b.Run("memoized", func(b *testing.B) { run(b, (*compile.Compiler).Size) })
	b.Run("uncached", func(b *testing.B) {
		run(b, func(c *compile.Compiler, cfg *callgraph.Config) int {
			m, err := c.Build(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return codegen.ModuleSize(m, c.Target())
		})
	})
}

// BenchmarkFnCacheColdVsWarm measures the content-addressed per-function
// cache's cross-run payoff on an autotuner-shaped probe set (a base
// configuration plus every single-site toggle). cold: every iteration
// starts from an empty content cache, the way a first `inlinebench` run
// does. warm: iterations share one pre-populated cache, the way a
// -cache-dir rerun (or the next file of a corpus with shared structure)
// does — every closure compilation becomes a hash lookup. Sizes are
// identical in both modes; recorded in BENCH_search.json.
func BenchmarkFnCacheColdVsWarm(b *testing.B) {
	p := workload.Profile{
		Name: "bench-fncache", Files: 1, TotalEdges: 60,
		ConstArgProb: 0.35, HubProb: 0.25, BigBodyProb: 0.25, LoopProb: 0.35,
		RecProb: 0.08, BranchProb: 0.45, MultiRootPct: 0.2,
	}
	f := workload.Generate(p).Files[0]
	probe := compile.New(f.Module, codegen.TargetX86)
	base := heuristic.OsConfig(probe.Module(), probe.Graph())
	configs := []*callgraph.Config{callgraph.NewConfig(), base}
	for _, s := range probe.Graph().Sites() {
		c := base.Clone()
		c.Set(s, !base.Inline(s))
		configs = append(configs, c)
	}
	b.Logf("unit: %d functions, %d probe configurations", len(probe.Module().Funcs), len(configs))
	run := func(b *testing.B, shared *compile.FnCache) {
		b.ReportAllocs()
		var last *compile.Compiler
		for i := 0; i < b.N; i++ {
			cache := shared
			if cache == nil {
				cache = compile.NewFnCache()
			}
			comp := compile.NewWithOptions(f.Module, codegen.TargetX86, compile.Options{FnCache: cache})
			for _, cfg := range configs {
				if comp.Size(cfg) <= 0 {
					b.Fatal("bad size")
				}
			}
			last = comp
		}
		st := last.FnCache().Stats()
		if total := st.Hits + st.Misses; total > 0 {
			b.ReportMetric(100*float64(st.Hits)/float64(total), "hit-pct")
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, nil) })
	warm := compile.NewFnCache()
	seed := compile.NewWithOptions(f.Module, codegen.TargetX86, compile.Options{FnCache: warm})
	for _, cfg := range configs {
		seed.Size(cfg)
	}
	b.Run("warm", func(b *testing.B) { run(b, warm) })
}

// BenchmarkAutotuneRoundDeltaVsFull measures one single-edge-toggle
// autotuner round (Algorithm 3, n+2 compilations) at the Table 2 workload's
// scale — a translation unit carrying the SPEC-profile corpus' aggregate
// candidate-edge budget — priced incrementally and through plain Size.
// delta: the autotuner itself, where each probe recompiles only the toggled
// edge's dirty closure against the round's Sized handle. full: the same
// round's probes through SizeParallel, each a whole-configuration memo walk
// over every function. Results are byte-identical; only the time differs, and
// the gap widens with module size (the walk is O(functions) per probe, the
// delta O(dirty closure)). Recorded in BENCH_search.json.
func BenchmarkAutotuneRoundDeltaVsFull(b *testing.B) {
	edges := 0
	for _, p := range workload.SPECProfiles() {
		edges += p.TotalEdges
	}
	p := workload.Profile{
		Name: "tab2-aggregate", Files: 1, TotalEdges: edges,
		ConstArgProb: 0.35, HubProb: 0.25, BigBodyProb: 0.25, LoopProb: 0.35,
		RecProb: 0.08, BranchProb: 0.45, MultiRootPct: 0.2,
	}
	f := workload.Generate(p).Files[0]
	{
		c := compile.New(f.Module, codegen.TargetX86)
		b.Logf("unit: %d functions, %d candidate edges", len(c.Module().Funcs), len(c.Graph().Edges))
	}
	b.Run("delta", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			comp := compile.New(f.Module, codegen.TargetX86)
			res := autotune.Tune(comp, nil, autotune.Options{Rounds: 1})
			if res.Size <= 0 {
				b.Fatal("no size")
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			comp := compile.New(f.Module, codegen.TargetX86)
			baseSize := comp.Size(callgraph.NewConfig())
			sites := comp.Graph().Sites()
			probes := make([]*callgraph.Config, len(sites))
			for j, s := range sites {
				probes[j] = callgraph.NewConfig().Set(s, true)
			}
			next := callgraph.NewConfig()
			for j, size := range comp.SizeParallel(probes, 0) {
				if size <= baseSize {
					next.Set(sites[j], true)
				}
			}
			if comp.Size(next) <= 0 {
				b.Fatal("no size")
			}
		}
	})
}

// BenchmarkCycleRepriceVsReinterp measures what making runtime a
// first-class objective costs per probe: pricing single-toggle
// configurations of a sqlite-profile unit (the largest generated unit that
// the interpreter finishes within fuel) three ways. "delta" builds a cycle
// pricer over one baseline profile and reprices each toggle incrementally
// (dirty-closure walk + i-cache replay); "oracle" prices each toggle with
// the whole-module model evaluation of a checked compiler's pricer (the
// reference evaluator, so its time also carries per-pass verification);
// "reinterp" is the
// naive alternative the pricer exists to avoid — rebuild the module and
// re-run the interpreter for every probe. The one-off profile collection
// runs outside the timed loop in every mode, and delta/oracle agree with
// each other bit-for-bit; reinterp additionally re-executes loops the
// model prices statically, so it is the semantic ground truth, not a
// byte-identical oracle. Recorded in BENCH_search.json.
func BenchmarkCycleRepriceVsReinterp(b *testing.B) {
	p := workload.Profile{
		Name: "sqlite", Files: 1, TotalEdges: 600,
		ConstArgProb: 0.4, HubProb: 0.3, BigBodyProb: 0.25,
		LoopProb: 0.3, RecProb: 0.08, BranchProb: 0.5, MultiRootPct: 0.12,
	}
	f := workload.Generate(p).Files[0]
	comp := compile.New(f.Module, codegen.TargetX86)
	built, err := comp.Build(callgraph.NewConfig())
	if err != nil {
		b.Fatal(err)
	}
	_, prof, err := interp.Collect(built, "entry", []int64{7}, interp.Options{Fuel: 20_000_000})
	if err != nil {
		b.Fatal(err)
	}
	edges := comp.Graph().Edges
	var sites []int
	for i := 0; i < len(edges) && len(sites) < 16; i += len(edges) / 16 {
		sites = append(sites, edges[i].Site)
	}
	b.Logf("unit: %d functions, %d candidate edges, %d profiled frame events, %d probes",
		len(comp.Module().Funcs), len(edges), len(prof.Events), len(sites))

	checked := compile.NewWithOptions(f.Module, codegen.TargetX86, compile.Options{Check: true})
	newPricer := func(c *compile.Compiler) *compile.CyclePricer {
		pr, err := c.NewCyclePricer(prof, compile.CycleOptions{})
		if err != nil {
			b.Fatal(err)
		}
		return pr
	}
	b.Run("delta", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pr := newPricer(comp)
			base := pr.Priced(callgraph.NewConfig())
			var sum int64
			for _, s := range sites {
				sum += pr.CyclesDelta(base, []int{s})
			}
			if sum <= 0 {
				b.Fatal("no cycles")
			}
		}
	})
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pr := newPricer(checked)
			var sum int64
			for _, s := range sites {
				cfg := callgraph.NewConfig()
				cfg.Set(s, true)
				sum += pr.Cycles(cfg)
			}
			if sum <= 0 {
				b.Fatal("no cycles")
			}
		}
	})
	b.Run("reinterp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var sum int64
			for _, s := range sites {
				cfg := callgraph.NewConfig()
				cfg.Set(s, true)
				bm, err := comp.Build(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := interp.Run(bm, "entry", []int64{7}, interp.Options{
					Fuel:   20_000_000,
					SizeOf: codegen.SizeOf(bm, codegen.TargetX86),
				})
				if err != nil {
					b.Fatal(err)
				}
				sum += res.Cycles
			}
			if sum <= 0 {
				b.Fatal("no cycles")
			}
		}
	})
}

// BenchmarkConfigKeyBitset measures the configuration-identity operations
// the evaluation hot paths lean on: the compile cache's binary CacheKey, a
// cached Key, and a cold Key after invalidation. Recorded in
// BENCH_search.json.
func BenchmarkConfigKeyBitset(b *testing.B) {
	cfg := callgraph.NewConfig()
	for s := 1; s <= 192; s += 2 {
		cfg.Set(s, true)
	}
	b.Run("cache-key", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if cfg.CacheKey() == "" {
				b.Fatal("empty cache key")
			}
		}
	})
	b.Run("key-cached", func(b *testing.B) {
		b.ReportAllocs()
		cfg.Key()
		for i := 0; i < b.N; i++ {
			if cfg.Key() == "" {
				b.Fatal("empty key")
			}
		}
	})
	b.Run("key-cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := cfg.Clone()
			c.Set(2, true).Set(2, false) // mutate: drops the cached key
			if c.Key() == "" {
				b.Fatal("empty key")
			}
		}
	})
}

// BenchmarkAblationPartition compares the paper's partition-edge heuristic
// against a structure-blind baseline by explored-configuration count
// (DESIGN.md ablation 1). The reported metric configs/op is the search
// space size — lower is better.
func BenchmarkAblationPartition(b *testing.B) {
	mg := &graph.Multigraph{N: 15}
	for i := 0; i < 14; i++ {
		mg.Edges = append(mg.Edges, graph.Edge{ID: i + 1, U: i, V: i + 1})
	}
	gwrap := pathWrap{mg}
	b.Run("paper-heuristic", func(b *testing.B) {
		var n uint64
		for i := 0; i < b.N; i++ {
			n, _ = search.SpaceSizeWith(gwrap, 0, search.SelectPartitionEdge)
		}
		b.ReportMetric(float64(n), "configs/op")
	})
	b.Run("first-edge", func(b *testing.B) {
		var n uint64
		for i := 0; i < b.N; i++ {
			n, _ = search.SpaceSizeWith(gwrap, 0, search.SelectFirstEdge)
		}
		b.ReportMetric(float64(n), "configs/op")
	})
}

type pathWrap struct{ mg *graph.Multigraph }

func (p pathWrap) Undirected() *graph.Multigraph { return p.mg }

// BenchmarkAblationGroupToggles compares the plain autotuner with the
// group-callee extension (paper §5.2.1) on a hub-heavy unit. The reported
// bytes/op metric is the tuned size — lower is better.
func BenchmarkAblationGroupToggles(b *testing.B) {
	p := workload.Profile{
		Name: "bench-hubs", Files: 1, TotalEdges: 50,
		ConstArgProb: 0.3, HubProb: 0.5, BigBodyProb: 0.2, LoopProb: 0.3,
		RecProb: 0, BranchProb: 0.4, MultiRootPct: 0.1,
	}
	f := workload.Generate(p).Files[0]
	run := func(b *testing.B, grouped bool) {
		var size int
		for i := 0; i < b.N; i++ {
			comp := compile.New(f.Module, codegen.TargetX86)
			res := autotune.TuneExtended(comp, nil, autotune.ExtOptions{
				Options: autotune.Options{Rounds: 2}, GroupCallees: grouped,
			})
			size = res.Size
		}
		b.ReportMetric(float64(size), "tuned-bytes")
	}
	b.Run("plain", func(b *testing.B) { run(b, false) })
	b.Run("grouped", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationIncremental compares full rounds with incremental
// re-tuning (paper §6). The evals/op metric counts real compilations —
// lower is cheaper.
func BenchmarkAblationIncremental(b *testing.B) {
	f := benchFile(60)
	run := func(b *testing.B, incr bool) {
		var evals int64
		for i := 0; i < b.N; i++ {
			comp := compile.New(f.Module, codegen.TargetX86)
			autotune.TuneExtended(comp, nil, autotune.ExtOptions{
				Options: autotune.Options{Rounds: 4}, Incremental: incr,
			})
			evals = comp.Evaluations()
		}
		b.ReportMetric(float64(evals), "evals")
	}
	b.Run("full-rounds", func(b *testing.B) { run(b, false) })
	b.Run("incremental", func(b *testing.B) { run(b, true) })
}

func BenchmarkInterpreter(b *testing.B) {
	src := `
export func main(n) {
  var acc = 0;
  for (var i = 0; i < n; i = i + 1) {
    acc = acc + i * i % 7;
  }
  return acc;
}
`
	p, err := Compile("bench.minc", src)
	if err != nil {
		b.Fatal(err)
	}
	d := p.NoInlining()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(d, "main", 200); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIRParse(b *testing.B) {
	f := benchFile(40)
	text := f.Module.String()
	b.ReportAllocs()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ir.Parse("bench", text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpICache(b *testing.B) {
	f := benchFile(20)
	m := f.Module
	sizeOf := codegen.SizeOf(m, codegen.TargetX86)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := interp.Run(m, "entry", []int64{5}, interp.Options{SizeOf: sizeOf, Fuel: 10_000_000})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSiteFeatureExtraction measures the mlheur feature-extraction
// throughput over the full 20-profile SPEC-shaped corpus: one interproc
// summary analysis per file (the Extractor), then a SiteFeatures lookup
// per candidate edge. "scratch" recomputes every file's summaries;
// "shared-cache" reuses one content-addressed summary cache across files
// and iterations (the daemon's steady state). sites/op reports how many
// feature vectors one iteration produces.
func BenchmarkSiteFeatureExtraction(b *testing.B) {
	type unit struct {
		m *ir.Module
		g *callgraph.Graph
	}
	var units []unit
	sites := 0
	for _, p := range workload.SPECProfiles() {
		for _, f := range workload.Generate(p).Files {
			f.Module.AssignSites()
			g := callgraph.Build(f.Module)
			units = append(units, unit{f.Module, g})
			sites += len(g.Edges)
		}
	}
	extractAll := func(cache *interproc.Cache) int {
		total := 0
		for _, u := range units {
			x := mlheur.NewExtractor(u.m, u.g, cache)
			for _, e := range u.g.Edges {
				fv := x.Extract(e)
				total += int(fv[0]) // defeat dead-code elimination
			}
		}
		return total
	}
	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			extractAll(nil)
		}
		b.ReportMetric(float64(sites), "sites/op")
	})
	b.Run("shared-cache", func(b *testing.B) {
		b.ReportAllocs()
		cache := interproc.NewCache()
		extractAll(cache) // warm the cache outside the timed region
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			extractAll(cache)
		}
		b.ReportMetric(float64(sites), "sites/op")
	})
}
