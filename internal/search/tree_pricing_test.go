package search

import (
	"fmt"
	"math/rand"
	"strings"
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

// pricingUnits returns random modules, call chains, the generated MinC
// programs of the compile package's differential fuzz test, and the files
// of a quarter-scale SPEC-like corpus whose space fits searchCorpusCap. In
// -short mode and under the race detector it keeps every third program
// and every fourth corpus file.
func pricingUnits(t *testing.T) []pricingUnit {
	t.Helper()
	var units []pricingUnit
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 20; i++ {
		units = append(units, pricingUnit{name: fmt.Sprintf("random%02d", i), mod: randomModule(rng)})
	}
	for _, shape := range [][2]int{{12, 1}, {5, 2}, {3, 3}} {
		name := fmt.Sprintf("chain%dx%d", shape[0], shape[1])
		mod, err := lang.Compile(name, chainSource(shape[0], shape[1]))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		units = append(units, pricingUnit{name: name, mod: mod})
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

// chainSource is a MinC program whose call graph is a chain of n+1
// functions, each calling the next calls times: the all-inline leaf of its
// inlining tree lies below n*calls contractions, more than a derived
// handle chains overlays (maxOverlayDepth, 8), so the walk flattens
// handles on the way down.
func chainSource(n, calls int) string {
	var sb strings.Builder
	sb.WriteString("global acc;\n")
	fmt.Fprintf(&sb, "func f%d(x) { acc = acc + x; return x * 3 + 1; }\n", n)
	for i := n - 1; i >= 0; i-- {
		fmt.Fprintf(&sb, "func f%d(x) {\n  var y = x + %d;\n", i, i)
		for c := 0; c < calls; c++ {
			fmt.Fprintf(&sb, "  y = y + f%d(y * %d);\n", i+1, c+2)
		}
		sb.WriteString("  return y;\n}\n")
	}
	sb.WriteString("export func main(n) { return f0(n); }\n")
	return sb.String()
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

// TestTreePricingMatchesReference: the walker must do what the walk it
// replaced did — the same optimum size and configuration, evaluations,
// whole-config cache counters and content-cache hits and misses — and
// pricing each inlining-tree node from its parent's handle must give the
// clean-slate pricing's answers and do its work, with content-cache hits
// that may only fall. Both hold for whole-module searches at every worker
// setting and for exact completions of each component under the -Os
// labels of the rest. Each generated program and corpus file runs one
// worker setting, in turn; the chains, whose trees contract more labels
// in a row than a derived handle chains overlays, run every setting.
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
			tc, wc, rc := freshCompiler(u.mod), freshCompiler(u.mod), freshCompiler(u.mod)
			got, ok1 := Optimal(tc, opts)
			walked, ok3 := refWalkOptimal(wc, opts)
			want, ok2 := refOptimal(rc, opts)
			what := fmt.Sprintf("%s workers %d", u.name, workers)
			for _, ref := range []struct {
				name string
				ok   bool
				res  Result
			}{{"previous walk", ok3, walked}, {"clean-slate pricing", ok2, want}} {
				if ok1 != ref.ok || got.Size != ref.res.Size || got.SpaceSize != ref.res.SpaceSize ||
					got.Evaluations != ref.res.Evaluations {
					t.Fatalf("%s: tree pricing (%v, size %d, space %d, %d evals), %s (%v, size %d, space %d, %d evals)",
						what, ok1, got.Size, got.SpaceSize, got.Evaluations, ref.name, ref.ok, ref.res.Size, ref.res.SpaceSize, ref.res.Evaluations)
				}
				if ok1 && got.Config.Key() != ref.res.Config.Key() {
					t.Fatalf("%s: tree pricing chose {%s}, %s {%s}", what, got.Config.Key(), ref.name, ref.res.Config.Key())
				}
			}
			gw, ww := countersOf(tc), countersOf(rc)
			if walk := countersOf(wc); gw != walk {
				t.Fatalf("%s: walker counted %+v, the previous walk %+v", what, gw, walk)
			}
			checkSameWork(t, what, gw, ww)
			treeHits += gw.fnHits
			refHits += ww.fnHits
		}

		tc, wc, rc := freshCompiler(u.mod), freshCompiler(u.mod), freshCompiler(u.mod)
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
			walkCfg, walkSize := refWalkCompletion(wc, comp, decided, opts)
			wantCfg, wantSize := refOptimalCompletion(rc, comp, decided, opts)
			what := fmt.Sprintf("%s component %d", u.name, i)
			if gotSize != wantSize || gotCfg.Key() != wantCfg.Key() || walkSize != wantSize || walkCfg.Key() != wantCfg.Key() {
				t.Fatalf("%s: tree pricing ({%s}, %d), previous walk ({%s}, %d), clean-slate pricing ({%s}, %d)",
					what, gotCfg.Key(), gotSize, walkCfg.Key(), walkSize, wantCfg.Key(), wantSize)
			}
			if got, walk := countersOf(tc), countersOf(wc); got != walk {
				t.Fatalf("%s: walker counted %+v, the previous walk %+v", what, got, walk)
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
