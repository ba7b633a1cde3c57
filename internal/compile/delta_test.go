package compile

import (
	"math/rand"
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
)

// TestSizeDeltaMatchesSizeOnCorpus is the exactness theorem of the delta
// engine: for arbitrary bases and toggle sets, SizeDelta must equal the
// whole-module size of the toggled configuration.
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
				cfg := baseCfg.Clone().Set(s, !baseCfg.Inline(s))
				if got, want := delta.SizeDelta(base, []int{s}), full(cfg); got != want {
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
			cfg := baseCfg.Clone()
			for _, s := range multi {
				cfg.Set(s, !baseCfg.Inline(s))
			}
			if got, want := delta.SizeDelta(base, multi), full(cfg); got != want {
				t.Fatalf("%s base %v toggles %v: delta %d != full %d",
					f.Name, baseCfg, multi, got, want)
			}
		}
	}
}

// TestRebaseAdvancesHandle: Rebase must price the toggled configuration
// exactly and hand back a handle that remains a correct base for further
// deltas — the autotuner's round-to-round advance.
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
			for _, s := range toggles {
				cfg.Set(s, !cfg.Inline(s))
			}
			handle = delta.Rebase(handle, toggles)
			if got, want := handle.Size(), full(cfg); got != want {
				t.Fatalf("%s step %d: rebased size %d != full %d", f.Name, step, got, want)
			}
			if !handle.Config().Equal(cfg) {
				t.Fatalf("%s step %d: rebased config %v != %v", f.Name, step, handle.Config(), cfg)
			}
			// The rebased handle must still price probes exactly.
			s := sites[rng.Intn(len(sites))]
			probe := cfg.Clone().Set(s, !cfg.Inline(s))
			if got, want := delta.SizeDelta(handle, []int{s}), full(probe); got != want {
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
			delta.SizeDelta(base, []int{s})
		}
		kept := sites[:1+len(sites)/2]
		delta.Rebase(base, kept)

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
// transparently become the classic whole-configuration path.
func TestDeltaDisabledFallsBack(t *testing.T) {
	f := memoCorpus(t)[0]
	c := NewWithOptions(f.Module, codegen.TargetX86, Options{Check: true})
	ref := New(f.Module, codegen.TargetX86)
	s := ref.Graph().Sites()[0]
	probe := callgraph.NewConfig().Set(s, true)
	if c.Derive(new(Sized), nil, callgraph.NewConfig(), nil) != nil {
		t.Fatal("Derive returned a handle")
	}
	base := c.Sized(callgraph.NewConfig())
	if got, want := c.SizeDelta(base, []int{s}), ref.Size(probe); got != want {
		t.Fatalf("fallback SizeDelta %d != Size %d", got, want)
	}
	if got, want := c.Rebase(base, []int{s}).Size(), ref.Size(probe); got != want {
		t.Fatalf("fallback Rebase %d != Size %d", got, want)
	}
	if got := c.DeltaStats().Evals; got != 0 {
		t.Fatalf("%d delta evals in checked mode", got)
	}
}

// TestSizeDeltaParallelMatchesSequential: parallel probing must return the
// same sizes in the same order as sequential, with identical counters
// (single-flight dedupes shared work).
func TestSizeDeltaParallelMatchesSequential(t *testing.T) {
	f := memoCorpus(t)[0]
	seq := New(f.Module, codegen.TargetX86)
	par := New(f.Module, codegen.TargetX86)
	sites := seq.Graph().Sites()
	toggles := make([][]int, len(sites))
	for i, s := range sites {
		toggles[i] = []int{s}
	}
	sb := seq.Sized(callgraph.NewConfig())
	pb := par.Sized(callgraph.NewConfig())
	want := seq.SizeDeltaParallel(sb, toggles, 1)
	got := par.SizeDeltaParallel(pb, toggles, 8)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("toggle %v: parallel %d != sequential %d", toggles[i], got[i], want[i])
		}
	}
	if g, w := par.Evaluations(), seq.Evaluations(); g != w {
		t.Fatalf("parallel evaluations %d != sequential %d", g, w)
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
			c.SizeDelta(base, []int{e.Site})
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
