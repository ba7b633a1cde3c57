package compile

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
)

// flipped returns cfg with every listed site's label flipped relative to
// cfg (duplicates are therefore harmless).
func flipped(cfg *callgraph.Config, toggles []int) *callgraph.Config {
	out := cfg.Clone()
	for _, s := range toggles {
		out.Set(s, !cfg.Inline(s))
	}
	return out
}

// sizeNear prices cfg, base's configuration with the toggled sites
// flipped, as the autotuner prices a probe: one SizeVia request that
// derives cfg's handle from base on a miss.
func sizeNear(c *Compiler, base *Sized, cfg *callgraph.Config, toggles []int) int {
	return c.SizeVia(cfg, func() *Sized { return c.Derive(new(Sized), base, cfg, toggles) })
}

// rebased is the autotuner's rebase: it prices cfg like sizeNear and
// returns cfg's handle, derived on a hit too, or nil in checked mode or
// when cfg fails to compile.
func rebased(c *Compiler, base *Sized, cfg *callgraph.Config, toggles []int) (int, *Sized) {
	var h *Sized
	size := c.SizeVia(cfg, func() *Sized { h = c.Derive(new(Sized), base, cfg, toggles); return h })
	if size == InfSize {
		return size, nil
	}
	if h == nil {
		h = c.Derive(new(Sized), base, cfg, toggles)
	}
	return size, h
}

// TestSizeDeltaMatchesSizeOnCorpus is the exactness theorem of the delta
// engine: for arbitrary bases and toggle sets, a size derived from the
// base's handle must equal the whole-module size of the toggled
// configuration.
func TestSizeDeltaMatchesSizeOnCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, f := range memoCorpus(t) {
		delta := New(f.Module, codegen.TargetX86)
		full := func(cfg *callgraph.Config) int { return wholeModuleSize(delta, cfg) }
		sites := delta.Graph().Sites()

		// Random base, including the clean slate on the first trial.
		for trial := 0; trial < 4; trial++ {
			baseCfg := callgraph.NewConfig()
			if trial > 0 {
				for _, s := range sites {
					if rng.Intn(2) == 0 {
						baseCfg.Set(s, true)
					}
				}
			}
			base := delta.Sized(baseCfg)
			if got, want := base.Size(), full(baseCfg); got != want {
				t.Fatalf("%s base %v: Sized %d != Size %d", f.Name, baseCfg, got, want)
			}
			// Single-site toggles (the autotuner's probes) ...
			for _, s := range sites {
				cfg := flipped(baseCfg, []int{s})
				if got, want := sizeNear(delta, base, cfg, []int{s}), full(cfg); got != want {
					t.Fatalf("%s base %v toggle %d: delta %d != full %d",
						f.Name, baseCfg, s, got, want)
				}
			}
			// ... and multi-site toggle sets (the group extension's probes).
			var multi []int
			for _, s := range sites {
				if rng.Intn(3) == 0 {
					multi = append(multi, s)
				}
			}
			cfg := flipped(baseCfg, multi)
			if got, want := sizeNear(delta, base, cfg, multi), full(cfg); got != want {
				t.Fatalf("%s base %v toggles %v: delta %d != full %d",
					f.Name, baseCfg, multi, got, want)
			}
		}
	}
}

// TestRebaseAdvancesHandle: a rebase must price the toggled configuration
// exactly and derive a handle that remains a correct base for further
// deltas — the autotuner's round-to-round advance, on cached and fresh
// configurations alike.
func TestRebaseAdvancesHandle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, f := range memoCorpus(t) {
		delta := New(f.Module, codegen.TargetX86)
		full := func(cfg *callgraph.Config) int { return wholeModuleSize(delta, cfg) }
		sites := delta.Graph().Sites()

		handle := delta.Sized(callgraph.NewConfig())
		cfg := callgraph.NewConfig()
		for step := 0; step < 4; step++ {
			var toggles []int
			for _, s := range sites {
				if rng.Intn(3) == 0 {
					toggles = append(toggles, s)
				}
			}
			next := flipped(cfg, toggles)
			if step%2 == 1 {
				delta.Size(next) // cached before the rebase
			}
			var size int
			size, handle = rebased(delta, handle, next, toggles)
			cfg = next
			if got, want := size, full(cfg); got != want || handle.Size() != want {
				t.Fatalf("%s step %d: rebased size %d, handle %d, full %d", f.Name, step, got, handle.Size(), want)
			}
			// The rebased handle must still price probes exactly.
			s := sites[rng.Intn(len(sites))]
			probe := flipped(cfg, []int{s})
			if got, want := sizeNear(delta, handle, probe, []int{s}), full(probe); got != want {
				t.Fatalf("%s step %d probe %d: delta %d != full %d", f.Name, step, s, got, want)
			}
		}
	}
}

// TestDeltaCounterParity: a round of the autotuner's request pattern must
// leave the evaluation and cache-hit counters identical whether it was
// priced incrementally or through the whole-configuration Size calls of a
// checked compiler — the counters are printed on stdout by the CLIs, so
// parity is part of the byte-identical-output contract.
func TestDeltaCounterParity(t *testing.T) {
	for _, f := range memoCorpus(t) {
		delta := New(f.Module, codegen.TargetX86)
		full := NewWithOptions(f.Module, codegen.TargetX86, Options{Check: true})
		sites := delta.Graph().Sites()

		// Delta path: base handle, one probe per site, rebase on the winners.
		base := delta.Sized(callgraph.NewConfig())
		for _, s := range sites {
			sizeNear(delta, base, callgraph.NewConfigOf([]int{s}), []int{s})
		}
		kept := sites[:1+len(sites)/2]
		rebased(delta, base, callgraph.NewConfigOf(kept), kept)

		// Full path: the same requests as whole configurations.
		baseCfg := callgraph.NewConfig()
		full.Size(baseCfg)
		for _, s := range sites {
			full.Size(baseCfg.Clone().Set(s, true))
		}
		next := callgraph.NewConfig()
		for _, s := range kept {
			next.Set(s, true)
		}
		full.Size(next)

		if d, w := delta.Evaluations(), full.Evaluations(); d != w {
			t.Fatalf("%s: delta evaluations %d != full %d", f.Name, d, w)
		}
		if d, w := delta.CacheHits(), full.CacheHits(); d != w {
			t.Fatalf("%s: delta cache hits %d != full %d", f.Name, d, w)
		}
		if delta.DeltaStats().Evals == 0 {
			t.Fatalf("%s: delta engine never engaged", f.Name)
		}
		if full.DeltaStats().Evals != 0 {
			t.Fatalf("%s: checked compiler priced %d configs incrementally",
				f.Name, full.DeltaStats().Evals)
		}
	}
}

// TestDeltaDisabledFallsBack: in checked mode the delta API must
// transparently become the classic whole-configuration path: Derive makes
// no handle and SizeVia never pulls one.
func TestDeltaDisabledFallsBack(t *testing.T) {
	f := memoCorpus(t)[0]
	c := NewWithOptions(f.Module, codegen.TargetX86, Options{Check: true})
	ref := New(f.Module, codegen.TargetX86)
	s := ref.Graph().Sites()[0]
	probe := callgraph.NewConfig().Set(s, true)
	if c.Derive(new(Sized), nil, callgraph.NewConfig(), nil) != nil {
		t.Fatal("Derive returned a handle")
	}
	if got, want := c.Sized(callgraph.NewConfig()).Size(), ref.Size(callgraph.NewConfig()); got != want {
		t.Fatalf("fallback Sized %d != Size %d", got, want)
	}
	pull := func() *Sized { t.Fatal("SizeVia pulled a handle in checked mode"); return nil }
	if got, want := c.SizeVia(probe, pull), ref.Size(probe); got != want {
		t.Fatalf("fallback SizeVia %d != Size %d", got, want)
	}
	if got, h := rebased(c, nil, probe, []int{s}); got != ref.Size(probe) || h != nil {
		t.Fatalf("fallback rebase %d (handle %v) != Size %d", got, h != nil, ref.Size(probe))
	}
	if got := c.DeltaStats().Evals; got != 0 {
		t.Fatalf("%d delta evals in checked mode", got)
	}
}

// TestSizeDeltaParallelMatchesSequential: probing from 8 goroutines, each
// deriving into its own reused memory, must return the same sizes as
// probing sequentially, with identical counters (single-flight dedupes
// shared work).
func TestSizeDeltaParallelMatchesSequential(t *testing.T) {
	f := memoCorpus(t)[0]
	seq := New(f.Module, codegen.TargetX86)
	par := New(f.Module, codegen.TargetX86)
	sites := seq.Graph().Sites()
	toggles := make([][]int, 2*len(sites)) // every probe twice: hits race misses
	for i := range toggles {
		toggles[i] = []int{sites[i%len(sites)]}
	}
	sb := seq.Sized(callgraph.NewConfig())
	pb := par.Sized(callgraph.NewConfig())
	want := make([]int, len(toggles))
	for i, ts := range toggles {
		want[i] = sizeNear(seq, sb, callgraph.NewConfigOf(ts), ts)
	}
	got := make([]int, len(toggles))
	clean := callgraph.NewConfig()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cfg callgraph.Config
			var h Sized
			for i := int(next.Add(1)) - 1; i < len(toggles); i = int(next.Add(1)) - 1 {
				cfg.CopyFrom(clean)
				for _, s := range toggles[i] {
					cfg.Set(s, true)
				}
				got[i] = par.SizeVia(&cfg, func() *Sized { return par.Derive(&h, pb, &cfg, toggles[i]) })
			}
		}()
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("toggle %v: parallel %d != sequential %d", toggles[i], got[i], want[i])
		}
	}
	if g, w := par.ConfigCacheStats(), seq.ConfigCacheStats(); g != w {
		t.Fatalf("parallel config cache %+v != sequential %+v", g, w)
	}
}

// TestDeltaRecomputesOnlyDirtyClosure: single-edge probes must on the whole
// touch fewer functions than the module holds — the perf claim behind the
// engine. A file whose candidate graph reaches everything from one caller
// can legitimately dirty every function, so the assertion is corpus-wide:
// somewhere the dirty set must be a strict subset, and it can never exceed
// the function count.
func TestDeltaRecomputesOnlyDirtyClosure(t *testing.T) {
	sparedSomewhere := false
	checked := 0
	for _, f := range memoCorpus(t) {
		c := New(f.Module, codegen.TargetX86)
		if len(c.memo.funcs) < 4 {
			continue
		}
		base := c.Sized(callgraph.NewConfig())
		for _, e := range c.Graph().Edges {
			before := c.DeltaStats()
			sizeNear(c, base, callgraph.NewConfigOf([]int{e.Site}), []int{e.Site})
			ds := c.DeltaStats()
			if ds.Evals != before.Evals+1 {
				t.Fatalf("%s: delta evals %d, want %d", f.Name, ds.Evals, before.Evals+1)
			}
			dirty := ds.DirtyFuncs - before.DirtyFuncs
			if dirty > int64(len(c.memo.funcs)) {
				t.Fatalf("%s site %d: dirtied %d of %d functions",
					f.Name, e.Site, dirty, len(c.memo.funcs))
			}
			if dirty < int64(len(c.memo.funcs)) {
				sparedSomewhere = true
			}
		}
		checked++
	}
	if checked == 0 {
		t.Skip("no file with enough functions in corpus")
	}
	if !sparedSomewhere {
		t.Fatal("every single-edge probe dirtied the whole module; delta engine saves nothing")
	}
}
