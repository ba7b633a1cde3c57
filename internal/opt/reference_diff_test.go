package opt

import (
	"fmt"
	"math/rand"
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/heuristic"
	"optinline/internal/inline"
	"optinline/internal/ir"
	"optinline/internal/lang"
	"optinline/internal/workload"
)

// TestOptimizerMatchesReference pins the optimizer's output, not only its
// semantics: on the generated MinC programs of the compile package's
// differential fuzz test and on one unit per SPEC-like profile, under no
// inlining, full inlining, the -Os heuristic and random configurations,
// every inlined function must come out of the production pipeline
// byte-identical to the reference pipeline's result (reference_test.go),
// with the same Stats.
func TestOptimizerMatchesReference(t *testing.T) {
	type unit struct {
		name string
		mod  *ir.Module
	}
	var units []unit
	for seed := int64(1); seed <= 30; seed++ {
		name := fmt.Sprintf("fuzz%03d", seed)
		mod, err := lang.Compile(name, lang.GenerateSource(seed, lang.GenOptions{}))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		units = append(units, unit{name, mod})
	}
	for _, p := range workload.SPECProfiles() {
		f := workload.Generate(p).Files[0]
		units = append(units, unit{f.Name, f.Module})
	}

	rng := rand.New(rand.NewSource(17))
	compared, changed := 0, 0
	for _, u := range units {
		base := u.mod.Clone()
		base.AssignSites()
		g := callgraph.Build(base)
		all := callgraph.NewConfig()
		for _, e := range g.Edges {
			all.Set(e.Site, true)
		}
		cfgs := []*callgraph.Config{callgraph.NewConfig(), all, heuristic.OsConfig(base, g)}
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
			m := base.Clone()
			if err := inline.Apply(m, cfg, inline.Options{}); err != nil {
				t.Fatalf("%s %v: %v", u.name, cfg, err)
			}
			for _, f := range m.Funcs {
				got, want := f.Clone(), f.Clone()
				gst, wst := Function(got), refFunction(want)
				if got.String() != want.String() {
					t.Fatalf("%s %v func %s: optimized body differs from the reference\ngot:\n%s\nwant:\n%s",
						u.name, cfg, f.Name, got, want)
				}
				if gst != wst {
					t.Fatalf("%s %v func %s: stats %+v, reference %+v", u.name, cfg, f.Name, gst, wst)
				}
				compared++
				if wst.InstrsRemoved+wst.BlocksRemoved+wst.ConstsFolded+wst.ParamsPropped > 0 {
					changed++
				}
			}
		}
	}
	if compared < 1000 || changed < compared/4 {
		t.Fatalf("compared %d functions, %d changed by the pipeline: inputs too tame", compared, changed)
	}
	t.Logf("%d functions compared, %d changed by the pipeline", compared, changed)
}
