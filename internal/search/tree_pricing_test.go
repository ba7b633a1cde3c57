package search

import (
	"fmt"
	"math/rand"
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/heuristic"
	"optinline/internal/ir"
	"optinline/internal/lang"
	"optinline/internal/workload"
)

// pricingUnit is one module the tree-pricing tests search.
type pricingUnit struct {
	name  string
	mod   *ir.Module
	large bool // a generated program or corpus file
}

// pricingUnits returns random modules, the generated MinC programs of the
// compile package's differential fuzz test, and the files of a
// quarter-scale SPEC-like corpus whose space fits searchCorpusCap. In
// -short mode and under the race detector it keeps every third program
// and every fourth corpus file.
func pricingUnits(t *testing.T) []pricingUnit {
	t.Helper()
	var units []pricingUnit
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 20; i++ {
		units = append(units, pricingUnit{name: fmt.Sprintf("random%02d", i), mod: randomModule(rng)})
	}
	subset := testing.Short() || raceEnabled
	for seed := int64(1); seed <= 30; seed++ {
		if subset && seed%3 != 1 {
			continue
		}
		name := fmt.Sprintf("fuzz%03d", seed)
		mod, err := lang.Compile(name, lang.GenerateSource(seed, lang.GenOptions{}))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		units = append(units, pricingUnit{name: name, mod: mod, large: true})
	}
	corpus := 0
	for _, p := range workload.SPECProfiles() {
		p.Files = max(1, p.Files/4)
		p.TotalEdges = max(1, p.TotalEdges/4)
		for _, f := range workload.Generate(p).Files {
			g := callgraph.Build(f.Module)
			if len(g.Edges) == 0 {
				continue
			}
			if _, over := RecursiveSpaceSize(g, searchCorpusCap); over {
				continue
			}
			if corpus++; subset && corpus%4 != 1 {
				continue
			}
			units = append(units, pricingUnit{name: f.Name, mod: f.Module, large: true})
		}
	}
	return units
}

// searchCounters is what a search must reproduce besides its answer.
type searchCounters struct {
	evals       int64
	configCache [2]int64 // hits, misses
	fnHits      int64
	fnMisses    int64
}

func countersOf(c *compile.Compiler) searchCounters {
	cc, fc := c.ConfigCacheStats(), c.FuncCacheStats()
	return searchCounters{c.Evaluations(), [2]int64{cc.Hits, cc.Misses}, fc.Hits, fc.Misses}
}

// checkSameWork requires the tree pricing's counters to equal the
// reference's, except content-cache hits, which may only fall.
func checkSameWork(t *testing.T, what string, got, want searchCounters) {
	t.Helper()
	if got.evals != want.evals || got.configCache != want.configCache || got.fnMisses != want.fnMisses {
		t.Fatalf("%s: tree pricing counted %+v, the reference %+v", what, got, want)
	}
	if got.fnHits > want.fnHits {
		t.Fatalf("%s: tree pricing made %d content-cache hits, the reference %d", what, got.fnHits, want.fnHits)
	}
}

func freshCompiler(m *ir.Module) *compile.Compiler {
	return compile.NewWithOptions(m, codegen.TargetX86, compile.Options{FnCache: compile.NewFnCache()})
}

// TestTreePricingMatchesReference: pricing each inlining-tree node from its
// parent's handle must give the clean-slate pricing's answers and do its
// work — the same optimum size and configuration, evaluations,
// whole-config cache counters and compiled closures — for whole-module
// searches at every worker setting and for exact completions of each
// component under the -Os labels of the rest. Only content-cache hits may
// differ, and only downward. Each generated program and corpus file runs
// one worker setting, in turn.
func TestTreePricingMatchesReference(t *testing.T) {
	units := pricingUnits(t)
	settings := []int{-1, 1, 4}
	var treeHits, refHits int64
	for ui, u := range units {
		workerSet := settings
		if u.large {
			workerSet = settings[ui%3 : ui%3+1]
		}
		for _, workers := range workerSet {
			opts := Options{Workers: workers, MaxSpace: searchCorpusCap}
			tc, rc := freshCompiler(u.mod), freshCompiler(u.mod)
			got, ok1 := Optimal(tc, opts)
			want, ok2 := refOptimal(rc, opts)
			what := fmt.Sprintf("%s workers %d", u.name, workers)
			if ok1 != ok2 || got.Size != want.Size || got.SpaceSize != want.SpaceSize ||
				got.Evaluations != want.Evaluations {
				t.Fatalf("%s: tree pricing (%v, size %d, space %d, %d evals), reference (%v, size %d, space %d, %d evals)",
					what, ok1, got.Size, got.SpaceSize, got.Evaluations, ok2, want.Size, want.SpaceSize, want.Evaluations)
			}
			if ok1 && got.Config.Key() != want.Config.Key() {
				t.Fatalf("%s: tree pricing chose {%s}, the reference {%s}", what, got.Config.Key(), want.Config.Key())
			}
			gw, ww := countersOf(tc), countersOf(rc)
			checkSameWork(t, what, gw, ww)
			treeHits += gw.fnHits
			refHits += ww.fnHits
		}

		tc, rc := freshCompiler(u.mod), freshCompiler(u.mod)
		osLabels := heuristic.OsConfig(tc.Module(), tc.Graph())
		for i, comp := range ComponentSubgraphs(tc.Graph()) {
			if _, over := SubspaceSize(comp, searchCorpusCap); over {
				continue
			}
			decided := osLabels.Clone()
			for _, s := range comp.EdgeIDs() {
				decided.Set(s, false)
			}
			opts := Options{Workers: 1 + 3*(i%2)}
			gotCfg, gotSize := OptimalCompletion(tc, comp, decided, opts)
			wantCfg, wantSize := refOptimalCompletion(rc, comp, decided, opts)
			what := fmt.Sprintf("%s component %d", u.name, i)
			if gotSize != wantSize || gotCfg.Key() != wantCfg.Key() {
				t.Fatalf("%s: tree pricing ({%s}, %d), reference ({%s}, %d)",
					what, gotCfg.Key(), gotSize, wantCfg.Key(), wantSize)
			}
			checkSameWork(t, what, countersOf(tc), countersOf(rc))
		}
	}
	if treeHits >= refHits {
		t.Fatalf("tree pricing made %d content-cache hits, the reference %d: nothing saved", treeHits, refHits)
	}
	t.Logf("%d units; content-cache hits %d, reference %d", len(units), treeHits, refHits)
}

// TestRepeatedSearchMakesNoContentLookups: a search whose every leaf and
// combine the whole-config cache already holds must not derive a single
// handle, so it asks the content cache nothing and the delta engine
// reprices nothing. Deriving handles before asking the cache would fail
// this.
func TestRepeatedSearchMakesNoContentLookups(t *testing.T) {
	units := pricingUnits(t)
	for _, u := range units[:min(60, len(units))] {
		c := freshCompiler(u.mod)
		opts := Options{Workers: 2, MaxSpace: searchCorpusCap}
		first, ok := Optimal(c, opts)
		if !ok {
			continue
		}
		fn, delta := c.FuncCacheStats(), c.DeltaStats()
		hits := c.CacheHits()
		again, _ := Optimal(c, opts)
		if again.Size != first.Size || !again.Config.Equal(first.Config) || again.Evaluations != first.Evaluations {
			t.Fatalf("%s: repeated search answered (%d, %d evals), first (%d, %d evals)",
				u.name, again.Size, again.Evaluations, first.Size, first.Evaluations)
		}
		if got := c.FuncCacheStats(); got != fn {
			t.Fatalf("%s: repeated search made %d content-cache lookups",
				u.name, got.Hits+got.Misses-fn.Hits-fn.Misses)
		}
		if got := c.DeltaStats(); got != delta {
			t.Fatalf("%s: repeated search repriced %d functions", u.name, got.DirtyFuncs-delta.DirtyFuncs)
		}
		if c.CacheHits() == hits {
			t.Fatalf("%s: repeated search never asked the config cache", u.name)
		}
	}
}
