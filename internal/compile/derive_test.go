package compile

import (
	"cmp"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/ir"
	"optinline/internal/workload"
)

// TestDeriveChainsMatchSize: a chain of handles, each derived from the one
// before by a few toggles, must price every link as the whole-module size
// of its configuration, without charging the config cache or the
// evaluation counters; a link derived from a handle that failed to
// compile prices from scratch. The chains run three times past the depth
// at which a derived handle stores its contributions in full, and every
// link's contributions must equal a from-scratch pricing's.
func TestDeriveChainsMatchSize(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, f := range memoCorpus(t) {
		c := New(f.Module, codegen.TargetX86)
		sites := c.Graph().Sites()
		cfg := callgraph.NewConfig()
		h := c.Derive(new(Sized), nil, cfg, nil)
		for step := 0; step < 3*maxOverlayDepth+2; step++ {
			var toggles []int
			for n := 1 + rng.Intn(3); n > 0; n-- {
				toggles = append(toggles, sites[rng.Intn(len(sites))])
			}
			if step == 4 {
				// A failed base carries no contributions.
				h = new(Sized).fail()
			}
			cfg = flipped(cfg, toggles)
			h = c.Derive(new(Sized), h, cfg, toggles)
			if got, want := h.Size(), wholeModuleSize(c, cfg); got != want {
				t.Fatalf("%s step %d: derived %d, whole module %d", f.Name, step, got, want)
			}
			if h.full {
				continue
			}
			if h.depth > maxOverlayDepth || (h.base == nil) != (h.depth == 0) {
				t.Fatalf("%s step %d: overlay depth %d, base %v", f.Name, step, h.depth, h.base != nil)
			}
			if got, want := h.appendContrib(nil), c.Derive(new(Sized), nil, cfg, nil).contrib; !slices.Equal(got, want) {
				t.Fatalf("%s step %d: contributions %v, from scratch %v", f.Name, step, got, want)
			}
		}
		if got, want := c.Derive(new(Sized), nil, cfg, cfg.InlineSites()).Size(), h.Size(); got != want {
			t.Fatalf("%s: priced from scratch %d, derived %d", f.Name, got, want)
		}
		if c.Evaluations() != 0 || c.CacheHits() != 0 || c.DeltaStats().Evals != 0 {
			t.Fatalf("%s: Derive charged %d evaluations, %d hits, %d delta evals",
				f.Name, c.Evaluations(), c.CacheHits(), c.DeltaStats().Evals)
		}
	}
}

// TestSizeViaChargesLikeSizeDelta: SizeVia must count misses and hits as
// Size does, charge every miss as one delta evaluation, as the tuner's
// probes always were, and pull a handle only on a miss.
func TestSizeViaChargesLikeSizeDelta(t *testing.T) {
	f := memoCorpus(t)[0]
	via, whole := New(f.Module, codegen.TargetX86), New(f.Module, codegen.TargetX86)
	root := via.Derive(new(Sized), nil, callgraph.NewConfig(), nil)
	pulls := 0
	for _, s := range append(via.Graph().Sites(), via.Graph().Sites()...) {
		cfg := callgraph.NewConfigOf([]int{s})
		got := via.SizeVia(cfg, func() *Sized { pulls++; return via.Derive(new(Sized), root, cfg, []int{s}) })
		if want := whole.Size(cfg); got != want {
			t.Fatalf("site %d: SizeVia %d, Size %d", s, got, want)
		}
	}
	if via.ConfigCacheStats() != whole.ConfigCacheStats() || via.DeltaStats().Evals != via.Evaluations() {
		t.Fatalf("SizeVia counted %+v and %d delta evals, Size %+v",
			via.ConfigCacheStats(), via.DeltaStats().Evals, whole.ConfigCacheStats())
	}
	if int64(pulls) != via.Evaluations() {
		t.Fatalf("%d pulls for %d misses", pulls, via.Evaluations())
	}
}

// TestDirtyIsAllocationFree: on a warm scratch the dirty set costs no
// allocation, and it lists the same functions in the same order as a
// plain set union, across modules sharing one scratch.
func TestDirtyIsAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	sc := new(dirtyScratch)
	for _, f := range memoCorpus(t) {
		ms := New(f.Module, codegen.TargetX86).memo
		sites := make([]int, 0, len(ms.siteCaller))
		for s := range ms.siteCaller {
			sites = append(sites, s)
		}
		slices.Sort(sites)
		for trial := 0; trial < 20; trial++ {
			toggles := []int{-1} // not a candidate site: ignored
			for n := 1 + rng.Intn(4); n > 0; n-- {
				toggles = append(toggles, sites[rng.Intn(len(sites))])
			}
			want := map[int32]bool{}
			ms.ensureAncestors()
			for _, s := range toggles[1:] {
				for _, a := range ms.ancestors[ms.siteCaller[s].idx] {
					want[a] = true
				}
				want[int32(ms.siteCallee[s].idx)] = true
			}
			got := ms.dirty(sc, toggles)
			if len(got) != len(want) || !slices.IsSorted(got) {
				t.Fatalf("%s %v: dirty %v, want the %d functions of %v, ascending", f.Name, toggles, got, len(want), want)
			}
			for i, d := range got {
				if !want[d] || (i > 0 && got[i-1] == d) {
					t.Fatalf("%s %v: dirty %v, want %v", f.Name, toggles, got, want)
				}
			}
			if allocs := testing.AllocsPerRun(20, func() { ms.dirty(sc, toggles) }); allocs != 0 {
				t.Fatalf("%s: dirty allocated %.1f times per call on a warm scratch", f.Name, allocs)
			}
		}
	}
}

// plainClosure is the closure walk before it ran on a scratch: a fresh
// worklist and seen set per call.
func plainClosure(ms *memoState, f *funcInfo, cfg *callgraph.Config) []*funcInfo {
	members := []*funcInfo{f}
	seen := map[*funcInfo]bool{f: true}
	for i := 0; i < len(members); i++ {
		for _, s := range members[i].sites {
			if callee := ms.siteCallee[s]; cfg.Inline(s) && !seen[callee] {
				seen[callee] = true
				members = append(members, callee)
			}
		}
	}
	slices.SortFunc(members, func(a, b *funcInfo) int { return cmp.Compare(a.idx, b.idx) })
	return members
}

// TestClosureWalkAllocatesNothing: on a warm scratch the closure walk
// costs no allocation, and it lists the same functions in the same order
// as a walk with a fresh worklist and seen set, across modules and label
// sets sharing one scratch.
func TestClosureWalkAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	sc := new(dirtyScratch)
	for _, f := range memoCorpus(t) {
		c := New(f.Module, codegen.TargetX86)
		ms := c.memo
		for trial := 0; trial < 4; trial++ {
			cfg := callgraph.NewConfig()
			for _, s := range c.Graph().Sites() {
				cfg.Set(s, rng.Intn(4) != 0)
			}
			for _, fi := range ms.funcs {
				want := plainClosure(ms, fi, cfg)
				if got := ms.closure(sc, fi, cfg); !slices.Equal(got, want) {
					t.Fatalf("%s %s: closure %d members, a fresh walk %d", f.Name, fi.name, len(got), len(want))
				}
				if allocs := testing.AllocsPerRun(5, func() { ms.closure(sc, fi, cfg) }); allocs != 0 {
					t.Fatalf("%s %s: the closure walk allocated %.1f times on a warm scratch", f.Name, fi.name, allocs)
				}
			}
		}
	}
}

// TestDeriveAllocatesItsDirtySet: deriving a handle with one toggle on a
// module of hundreds of functions stores only the toggle's dirty entries
// over its base, and allocates a small fraction of one whole contribution
// vector, at the first derivation from a full vector and further down a
// chain. The byte bound is not checked under the race detector, whose
// pools drop their items.
func TestDeriveAllocatesItsDirtySet(t *testing.T) {
	var m *ir.Module
	for _, f := range workload.LLVMCodebase().Files {
		if m == nil || len(f.Module.Funcs) > len(m.Funcs) {
			m = f.Module
		}
	}
	c := New(m, codegen.TargetX86)
	n := len(c.memo.funcs)
	if n < 200 {
		t.Fatalf("largest unit has only %d functions", n)
	}
	// The sites with the smallest dirty sets, toggled one after another.
	var sc dirtyScratch
	sites := c.Graph().Sites()
	slices.SortStableFunc(sites, func(a, b int) int {
		return cmp.Compare(len(c.memo.dirty(&sc, []int{a})), len(c.memo.dirty(&sc, []int{b})))
	})
	cfg := callgraph.NewConfig()
	h := c.Derive(new(Sized), nil, cfg, nil)
	for _, s := range sites[:3] {
		dirty := len(c.memo.dirty(&sc, []int{s}))
		base := h
		cfg = flipped(cfg, []int{s})
		h = c.Derive(new(Sized), base, cfg, []int{s}) // compiles the dirty closures
		if h.contrib != nil || len(h.overlay) != dirty {
			t.Fatalf("site %d: derived handle holds %d contributions in full, %d in its overlay; %d are dirty",
				s, len(h.contrib), len(h.overlay), dirty)
		}
		if raceEnabled {
			continue
		}
		var before, after runtime.MemStats
		const runs = 50
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			c.Derive(new(Sized), base, cfg, []int{s})
		}
		runtime.ReadMemStats(&after)
		perDerive := (after.TotalAlloc - before.TotalAlloc) / runs
		if vector := uint64(8 * n); perDerive > vector/4 {
			t.Fatalf("site %d (%d dirty of %d functions): a derivation allocates %d bytes; a contribution vector is %d",
				s, dirty, n, perDerive, vector)
		}
	}
}
