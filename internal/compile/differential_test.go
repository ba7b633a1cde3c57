package compile

import (
	"fmt"
	"math/rand"
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/interp"
	"optinline/internal/lang"
	"optinline/internal/workload"
)

// TestFullPipelinePreservesSemanticsOnCorpus is the end-to-end differential
// test: on generated translation units, the complete pipeline — inlining
// under an arbitrary configuration, the optimizer, and label-based
// dead-function elimination — must preserve observable behaviour of the
// exported entry point.
func TestFullPipelinePreservesSemanticsOnCorpus(t *testing.T) {
	p := workload.Profile{
		Name: "difftest", Files: 10, TotalEdges: 70,
		ConstArgProb: 0.4, HubProb: 0.25, BigBodyProb: 0.25, LoopProb: 0.4,
		RecProb: 0.12, BranchProb: 0.5, MultiRootPct: 0.15,
	}
	bench := workload.Generate(p)
	rng := rand.New(rand.NewSource(31))
	checked := 0
	for _, f := range bench.Files {
		if f.Module.Func("entry") == nil {
			continue
		}
		c := New(f.Module, codegen.TargetX86)
		g := c.Graph()
		if len(g.Edges) == 0 {
			continue
		}
		base, err := interp.Run(f.Module, "entry", []int64{4}, interp.Options{Fuel: 10_000_000})
		if err != nil {
			continue // exponential dynamic call tree; size-only file
		}
		for trial := 0; trial < 6; trial++ {
			cfg := callgraph.NewConfig()
			for _, e := range g.Edges {
				if rng.Intn(2) == 0 {
					cfg.Set(e.Site, true)
				}
			}
			m, err := c.Build(cfg)
			if err != nil {
				t.Fatalf("%s %v: %v", f.Name, cfg, err)
			}
			if err := m.Verify(); err != nil {
				t.Fatalf("%s %v: post-pipeline verify: %v", f.Name, cfg, err)
			}
			got, err := interp.Run(m, "entry", []int64{4}, interp.Options{Fuel: 10_000_000})
			if err != nil {
				t.Fatalf("%s %v: run: %v", f.Name, cfg, err)
			}
			if got.Observable() != base.Observable() {
				t.Fatalf("%s %v: pipeline changed behaviour", f.Name, cfg)
			}
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("only %d configurations checked; corpus too hostile", checked)
	}
}

// TestDifferentialFuzzGeneratedPrograms is the second differential front:
// where the corpus test above stresses synthetic IR shapes, this one
// stresses the full front end. Random MinC sources from the seeded
// generator are lowered, compiled under random inlining configurations,
// and executed; the observable behaviour (return value, output stream)
// must match the no-inline baseline for every configuration and argument.
// It also cross-checks the memoized per-component size against the size of
// the actually-built module, so the memo engine is fuzzed on lang-lowered
// code, not just on workload-generated IR.
func TestDifferentialFuzzGeneratedPrograms(t *testing.T) {
	const fuel = 40_000_000
	args := []int64{0, 4, 9}
	rng := rand.New(rand.NewSource(7))
	checked := 0
	for seed := int64(1); seed <= 30; seed++ {
		name := fmt.Sprintf("fuzz%03d", seed)
		src := lang.GenerateSource(seed, lang.GenOptions{})
		mod, err := lang.Compile(name, src)
		if err != nil {
			t.Fatalf("seed %d: generated source does not lower: %v\n%s", seed, err, src)
		}
		c := New(mod, codegen.TargetX86)
		g := c.Graph()
		if len(g.Edges) == 0 {
			continue
		}
		base := make([]interp.Result, len(args))
		for i, a := range args {
			r, err := interp.Run(mod, "entry", []int64{a}, interp.Options{Fuel: fuel})
			if err != nil {
				t.Fatalf("seed %d arg %d: baseline run: %v\n%s", seed, a, err, src)
			}
			base[i] = r
		}
		for trial := 0; trial < 8; trial++ {
			cfg := callgraph.NewConfig()
			for _, e := range g.Edges {
				// Trial 0 inlines everything (maximum DFE pressure);
				// later trials sample the space.
				if trial == 0 || rng.Intn(2) == 0 {
					cfg.Set(e.Site, true)
				}
			}
			m, err := c.Build(cfg)
			if err != nil {
				t.Fatalf("seed %d cfg %v: build: %v", seed, cfg, err)
			}
			if err := m.Verify(); err != nil {
				t.Fatalf("seed %d cfg %v: post-pipeline verify: %v", seed, cfg, err)
			}
			if got, want := c.Size(cfg), codegen.ModuleSize(m, codegen.TargetX86); got != want {
				t.Fatalf("seed %d cfg %v: memoized size %d != built-module size %d", seed, cfg, got, want)
			}
			for i, a := range args {
				got, err := interp.Run(m, "entry", []int64{a}, interp.Options{Fuel: fuel})
				if err != nil {
					t.Fatalf("seed %d cfg %v arg %d: run: %v", seed, cfg, a, err)
				}
				if got.Observable() != base[i].Observable() {
					t.Fatalf("seed %d cfg %v arg %d: pipeline changed behaviour\n%s", seed, cfg, a, src)
				}
				checked++
			}
		}
	}
	if checked < 300 {
		t.Fatalf("only %d program/config/arg triples checked; generator too timid", checked)
	}
}

// TestCheckedModeFuzzGeneratedPrograms pushes every generated seed through
// checked compilation mode: invariants verified after every inline step and
// every optimization pass, plus the post-pipeline analyzer audit. A
// violation anywhere fails the build with a stage/pass attribution, so this
// is the analyzer suite's false-positive regression test as much as the
// pipeline's correctness test. It also pins checked-mode sizes to the
// memoized fast path's, and asserts the frontend lints stay silent in the
// categories the generator guarantees absent (generated programs do contain
// write-only locals, so unused-local is deliberately not on that list).
func TestCheckedModeFuzzGeneratedPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cleanLints := []string{"use-before-init", "unreachable-stmt", "shadow"}
	verified := 0
	for seed := int64(1); seed <= 30; seed++ {
		name := fmt.Sprintf("chk%03d", seed)
		src := lang.GenerateSource(seed, lang.GenOptions{})
		prog, err := lang.Parse(name, src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", seed, err, src)
		}
		lints := lang.Lint(name, prog)
		if lints.HasErrors() {
			t.Fatalf("seed %d: lints at error severity on generated code:\n%s", seed, lints.Text())
		}
		for _, analyzer := range cleanLints {
			if ds := lints.ByAnalyzer(analyzer); len(ds) > 0 {
				t.Fatalf("seed %d: false-positive %s lints on generated code:\n%s\n%s",
					seed, analyzer, ds.Text(), src)
			}
		}
		mod, err := lang.Lower(name, prog)
		if err != nil {
			t.Fatalf("seed %d: lower: %v", seed, err)
		}
		plain := New(mod, codegen.TargetX86)
		chk := NewWithOptions(mod, codegen.TargetX86, Options{Check: true})
		g := chk.Graph()
		cfgs := []*callgraph.Config{callgraph.NewConfig()}
		all := callgraph.NewConfig()
		for _, e := range g.Edges {
			all.Set(e.Site, true)
		}
		cfgs = append(cfgs, all)
		for trial := 0; trial < 3; trial++ {
			cfg := callgraph.NewConfig()
			for _, e := range g.Edges {
				if rng.Intn(2) == 0 {
					cfg.Set(e.Site, true)
				}
			}
			cfgs = append(cfgs, cfg)
		}
		for _, cfg := range cfgs {
			got, want := chk.Size(cfg), plain.Size(cfg)
			if err := chk.CheckFailure(); err != nil {
				t.Fatalf("seed %d cfg %v: checked mode: %v\n%s", seed, cfg, err, src)
			}
			if got != want {
				t.Fatalf("seed %d cfg %v: checked size %d != memoized size %d", seed, cfg, got, want)
			}
			verified++
		}
	}
	if verified < 100 {
		t.Fatalf("only %d checked configurations; corpus too small", verified)
	}
}

// TestDeltaFuzzMatchesFullAndChecked is the delta engine's differential
// front: across the 30-seed generated-program corpus, every configuration is
// priced three ways — incrementally (SizeVia and Derive against a handle),
// through the whole-configuration memo path (a separate compiler's Size),
// and in checked compilation mode — and all three must agree byte-for-byte. The
// toggle sets deliberately include ones that kill functions via label-based
// DFE (inline every incoming edge of an internal callee) and ones that
// resurrect them again from a rebased all-inline handle.
func TestDeltaFuzzMatchesFullAndChecked(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	compared := 0
	for seed := int64(1); seed <= 30; seed++ {
		name := fmt.Sprintf("dlt%03d", seed)
		src := lang.GenerateSource(seed, lang.GenOptions{})
		mod, err := lang.Compile(name, src)
		if err != nil {
			t.Fatalf("seed %d: generated source does not lower: %v\n%s", seed, err, src)
		}
		delta := New(mod, codegen.TargetX86)
		full := New(mod, codegen.TargetX86)
		chk := NewWithOptions(mod, codegen.TargetX86, Options{Check: true})
		g := delta.Graph()
		if len(g.Edges) == 0 {
			continue
		}
		sites := g.Sites()
		base := delta.Sized(callgraph.NewConfig())

		// Five toggle sets per seed: everything (maximum DFE kill pressure),
		// one internal callee's complete incoming-edge set (a targeted kill),
		// and three random samples.
		sets := [][]int{sites}
		victim := ""
		for _, e := range g.Edges {
			if callee := delta.Module().Func(e.Callee); callee != nil && !callee.Exported {
				victim = e.Callee
				break
			}
		}
		if victim != "" {
			var in []int
			for _, e := range g.Edges {
				if e.Callee == victim {
					in = append(in, e.Site)
				}
			}
			sets = append(sets, in)
		}
		for len(sets) < 5 {
			var ts []int
			for _, s := range sites {
				if rng.Intn(2) == 0 {
					ts = append(ts, s)
				}
			}
			sets = append(sets, ts)
		}
		for _, ts := range sets {
			cfg := callgraph.NewConfig()
			for _, s := range ts {
				cfg.Set(s, true)
			}
			got := sizeNear(delta, base, cfg, ts)
			want := full.Size(cfg)
			chkGot := chk.Size(cfg)
			if err := chk.CheckFailure(); err != nil {
				t.Fatalf("seed %d cfg %v: checked mode: %v\n%s", seed, cfg, err, src)
			}
			if got != want || got != chkGot {
				t.Fatalf("seed %d cfg %v: delta %d / full %d / checked %d disagree",
					seed, cfg, got, want, chkGot)
			}
			compared++
		}

		// Rebase onto all-inline, then un-inline single sites: each probe can
		// resurrect a DFE-killed callee, and must still match both oracles.
		allCfg := callgraph.NewConfigOf(sites)
		_, reb := rebased(delta, base, allCfg, sites)
		if got, want := reb.Size(), full.Size(allCfg); got != want {
			t.Fatalf("seed %d: rebased all-inline size %d != full %d", seed, got, want)
		}
		for _, s := range sites[:min(3, len(sites))] {
			cfg := allCfg.Clone().Set(s, false)
			got := sizeNear(delta, reb, cfg, []int{s})
			want := full.Size(cfg)
			chkGot := chk.Size(cfg)
			if err := chk.CheckFailure(); err != nil {
				t.Fatalf("seed %d cfg %v: checked mode: %v\n%s", seed, cfg, err, src)
			}
			if got != want || got != chkGot {
				t.Fatalf("seed %d resurrect %d: delta %d / full %d / checked %d disagree",
					seed, s, got, want, chkGot)
			}
			compared++
		}
	}
	if compared < 100 {
		t.Fatalf("only %d configurations compared; corpus too trivial", compared)
	}
}

// TestSizeMonotonicityUnderDFE: fully inlining every call edge of an
// internal function can never be worse than inlining all of them except
// leaving the function alive artificially — i.e., DFE only helps.
func TestSizeMonotonicityUnderDFE(t *testing.T) {
	p := workload.Profile{
		Name: "dfemono", Files: 6, TotalEdges: 40,
		ConstArgProb: 0.3, HubProb: 0.2, BigBodyProb: 0.2, LoopProb: 0.3,
		RecProb: 0, BranchProb: 0.4, MultiRootPct: 0.1,
	}
	bench := workload.Generate(p)
	for _, f := range bench.Files {
		c := New(f.Module, codegen.TargetX86)
		g := c.Graph()
		if len(g.Edges) == 0 {
			continue
		}
		// All edges inlined: every internal callee with incoming edges dies.
		all := callgraph.NewConfig()
		for _, e := range g.Edges {
			all.Set(e.Site, true)
		}
		m, err := c.Build(all)
		if err != nil {
			continue // growth bound; fine
		}
		removable := g.CalleesAllInline(all)
		for name, ok := range removable {
			if !ok {
				continue
			}
			if fn := m.Func(name); fn != nil && !fn.Exported {
				t.Fatalf("%s: fully inlined internal %s not eliminated", f.Name, name)
			}
		}
	}
}
