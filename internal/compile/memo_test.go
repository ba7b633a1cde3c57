package compile

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/ir"
	"optinline/internal/workload"
)

// memoCorpus returns generated translation units with non-trivial call
// graphs, covering hubs, loops, recursion, and multiple components.
func memoCorpus(t testing.TB) []workload.File {
	p := workload.Profile{
		Name: "memo", Files: 12, TotalEdges: 90,
		ConstArgProb: 0.4, HubProb: 0.3, BigBodyProb: 0.25, LoopProb: 0.4,
		RecProb: 0.15, BranchProb: 0.5, MultiRootPct: 0.2,
	}
	var out []workload.File
	for _, f := range workload.Generate(p).Files {
		c := New(f.Module, codegen.TargetX86)
		if len(c.Graph().Edges) > 0 {
			out = append(out, f)
		}
	}
	if len(out) < 4 {
		t.Fatalf("corpus too trivial: %d usable files", len(out))
	}
	return out
}

// wholeModuleSize is the reference size of cfg: one whole-module Build and
// measurement, consulting no cache.
func wholeModuleSize(c *Compiler, cfg *callgraph.Config) int {
	m, err := c.Build(cfg)
	if err != nil {
		return InfSize
	}
	return codegen.ModuleSize(m, c.Target())
}

// TestMemoizedSizeMatchesWholeModule is the exactness theorem of the memo
// engine: for arbitrary configurations, the sum of cached per-function
// sizes over the surviving functions equals the size of the whole-module
// pipeline.
func TestMemoizedSizeMatchesWholeModule(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, f := range memoCorpus(t) {
		memo := New(f.Module, codegen.TargetX86)
		g := memo.Graph()
		cfgs := []*callgraph.Config{callgraph.NewConfig()}
		all := callgraph.NewConfig()
		for _, e := range g.Edges {
			all.Set(e.Site, true)
		}
		cfgs = append(cfgs, all)
		for trial := 0; trial < 12; trial++ {
			cfg := callgraph.NewConfig()
			for _, e := range g.Edges {
				if rng.Intn(2) == 0 {
					cfg.Set(e.Site, true)
				}
			}
			cfgs = append(cfgs, cfg)
		}
		for _, cfg := range cfgs {
			got, want := memo.Size(cfg), wholeModuleSize(memo, cfg)
			if got != want {
				t.Fatalf("%s %v: memoized size %d != whole-module size %d",
					f.Name, cfg, got, want)
			}
		}
		cs := memo.FuncCacheStats()
		if cs.Total() == 0 {
			t.Fatalf("%s: function cache never consulted", f.Name)
		}
	}
}

// TestMemoFuncCacheHits: two configurations that differ in a single label
// must recompile only the functions whose inline closure contains the
// flipped site — the caller (and, through DFE, the callee), never the
// whole module.
func TestMemoFuncCacheHits(t *testing.T) {
	checked := 0
	for _, f := range memoCorpus(t) {
		c := New(f.Module, codegen.TargetX86)
		if len(c.memo.funcs) < 4 {
			continue
		}
		c.Size(callgraph.NewConfig())
		miss0 := c.funcMisses.Load()
		// Toggle a single site: only closures containing it may recompile.
		e := c.Graph().Edges[0]
		cfg := callgraph.NewConfig().Set(e.Site, true)
		c.Size(cfg)
		newMisses := c.funcMisses.Load() - miss0
		if newMisses >= int64(len(c.memo.funcs)) {
			t.Fatalf("%s: toggling one site recompiled %d of %d functions",
				f.Name, newMisses, len(c.memo.funcs))
		}
		if c.funcHits.Load() == 0 {
			t.Fatalf("%s: expected function cache hits", f.Name)
		}
		// The flipped site is in the caller's closure, so unless DFE
		// removed the caller the toggle costs at least one recompile.
		if newMisses == 0 {
			t.Fatalf("%s: toggling site %d cost no recompilation", f.Name, e.Site)
		}
		checked++
	}
	if checked == 0 {
		t.Skip("no file with enough functions in corpus")
	}
}

// TestClosureKeyAfterLargeClosure: a closure keyed right after one whose
// canonicalization maps grew past maxPooledCanon gets the key it gets on
// a fresh pool, and so does every other closure, small or large.
func TestClosureKeyAfterLargeClosure(t *testing.T) {
	var m *ir.Module
	for _, f := range workload.LLVMCodebase().Files {
		if m == nil || len(f.Module.Funcs) > len(m.Funcs) {
			m = f.Module
		}
	}
	c := New(m, codegen.TargetX86)
	all := callgraph.NewConfigOf(c.Graph().Sites())
	type closure struct {
		fi      *funcInfo
		members []*funcInfo
	}
	var small, large []closure
	for _, fi := range c.memo.funcs {
		members := c.memo.closure(new(dirtyScratch), fi, all)
		sites, names := map[int]bool{}, map[string]bool{}
		for _, m := range members {
			for i, s := range m.callSites {
				sites[s], names[m.calleeNames[i]] = true, true
			}
			names[m.name] = true
		}
		cl := closure{fi, members}
		if min(len(sites), len(names)) > maxPooledCanon {
			large = append(large, cl)
		} else if len(members) > 1 {
			small = append(small, cl)
		}
	}
	if len(small) == 0 || len(large) == 0 {
		t.Fatalf("%d small and %d large closures", len(small), len(large))
	}
	runtime.GC() // two collections empty the pools
	runtime.GC()
	fresh := make(map[*funcInfo]FnKey)
	for _, cl := range append(slices.Clone(small), large...) {
		fresh[cl.fi] = c.closureKey(cl.fi, cl.members, all)
	}
	for i, cl := range small {
		lg := large[i%len(large)]
		if got := c.closureKey(lg.fi, lg.members, all); got != fresh[lg.fi] {
			t.Fatalf("large closure of %s: key %v, on a fresh pool %v", lg.fi.name, got, fresh[lg.fi])
		}
		if got := c.closureKey(cl.fi, cl.members, all); got != fresh[cl.fi] {
			t.Fatalf("closure of %s after the large one of %s: key %v, on a fresh pool %v",
				cl.fi.name, lg.fi.name, got, fresh[cl.fi])
		}
	}
}

// TestSizeSingleFlight: concurrent Size calls for the same configuration
// must coalesce into one evaluation, keeping counters deterministic.
func TestSizeSingleFlight(t *testing.T) {
	f := memoCorpus(t)[0]
	c := New(f.Module, codegen.TargetX86)
	cfg := callgraph.NewConfig().Set(c.Graph().Edges[0].Site, true)
	var wg sync.WaitGroup
	sizes := make([]int, 16)
	for i := range sizes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sizes[i] = c.Size(cfg)
		}(i)
	}
	wg.Wait()
	for _, s := range sizes[1:] {
		if s != sizes[0] {
			t.Fatalf("inconsistent sizes: %v", sizes)
		}
	}
	if got := c.Evaluations(); got != 1 {
		t.Fatalf("evaluations = %d, want 1 (single-flight)", got)
	}
	if got := c.CacheHits(); got != 15 {
		t.Fatalf("cache hits = %d, want 15", got)
	}
}

// TestMemoFingerprintStable: identical modules share a (structural)
// fingerprint, different modules do not — with the printed form as the
// oracle: wherever Module.String separates two modules, the structural
// hash must separate them too.
func TestMemoFingerprintStable(t *testing.T) {
	files := memoCorpus(t)
	a := New(files[0].Module, codegen.TargetX86)
	b := New(files[0].Module, codegen.TargetX86)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same module, different fingerprints")
	}
	other := New(files[1].Module, codegen.TargetX86)
	if a.Fingerprint() == other.Fingerprint() {
		t.Fatal("distinct modules share a fingerprint")
	}
	// Oracle cross-check over the whole corpus: the compilers' site-assigned
	// base modules all print differently, and the structural hash must
	// separate every one of them.
	seen := make(map[uint64]string)
	printed := make(map[string]string)
	for _, f := range files {
		m := New(f.Module, codegen.TargetX86).Module()
		text := m.String()
		if prev, ok := printed[text]; ok {
			t.Fatalf("%s and %s print identically; the corpus should not repeat a module", prev, f.Name)
		}
		printed[text] = f.Name
		if prev, ok := seen[m.Fingerprint()]; ok {
			t.Fatalf("structural fingerprint collision: %s vs %s", prev, f.Name)
		}
		seen[m.Fingerprint()] = f.Name
	}
}
