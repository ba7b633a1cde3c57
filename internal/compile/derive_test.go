package compile

import (
	"math/rand"
	"slices"
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
)

// TestDeriveChainsMatchSize: a chain of handles, each derived from the one
// before by a few toggles, must price every link as the whole-module size
// of its configuration, without charging the config cache or the
// evaluation counters; a link derived from a handle that failed to
// compile prices from scratch.
func TestDeriveChainsMatchSize(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, f := range memoCorpus(t) {
		c := New(f.Module, codegen.TargetX86)
		sites := c.Graph().Sites()
		h := c.Derive(nil, nil)
		for step := 0; step < 8; step++ {
			var toggles []int
			for n := 1 + rng.Intn(3); n > 0; n-- {
				toggles = append(toggles, sites[rng.Intn(len(sites))])
			}
			if step == 4 {
				// A failed base carries no contributions.
				h = &Sized{cfg: h.cfg, total: InfSize, full: true}
			}
			h = c.Derive(h, toggles)
			if got, want := h.Size(), wholeModuleSize(c, h.cfg); got != want {
				t.Fatalf("%s step %d: derived %d, whole module %d", f.Name, step, got, want)
			}
		}
		if got, want := c.Derive(nil, h.cfg.InlineSites()).Size(), h.Size(); got != want {
			t.Fatalf("%s: priced from scratch %d, derived %d", f.Name, got, want)
		}
		if c.Evaluations() != 0 || c.CacheHits() != 0 || c.DeltaStats().Evals != 0 {
			t.Fatalf("%s: Derive charged %d evaluations, %d hits, %d delta evals",
				f.Name, c.Evaluations(), c.CacheHits(), c.DeltaStats().Evals)
		}
	}
}

// TestSizeViaChargesLikeSizeDelta: SizeVia must count a miss and a hit
// exactly as SizeDelta does, and pull a handle only on a miss.
func TestSizeViaChargesLikeSizeDelta(t *testing.T) {
	f := memoCorpus(t)[0]
	via, delta := New(f.Module, codegen.TargetX86), New(f.Module, codegen.TargetX86)
	root := via.Derive(nil, nil)
	base := delta.Derive(nil, nil)
	pulls := 0
	for _, s := range append(via.Graph().Sites(), via.Graph().Sites()...) {
		cfg := callgraph.NewConfigOf([]int{s})
		got := via.SizeVia(cfg, func() *Sized { pulls++; return via.Derive(root, []int{s}) })
		if want := delta.SizeDelta(base, []int{s}); got != want {
			t.Fatalf("site %d: SizeVia %d, SizeDelta %d", s, got, want)
		}
	}
	if via.ConfigCacheStats() != delta.ConfigCacheStats() || via.DeltaStats().Evals != delta.DeltaStats().Evals {
		t.Fatalf("SizeVia counted %+v and %d delta evals, SizeDelta %+v and %d",
			via.ConfigCacheStats(), via.DeltaStats().Evals, delta.ConfigCacheStats(), delta.DeltaStats().Evals)
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
