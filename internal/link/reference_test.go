package link

import (
	"fmt"
	"reflect"
	"testing"

	"optinline/internal/autotune"
	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
)

// This file keeps the cold sharded engines that preceded running cold
// queries as Session queries on a private cache: refSearchSharded (every
// component solved on its own sub-module, plus one whole-residual
// compile) and refTuneSharded (one autotune.Session per component stepped
// in lockstep rounds). TestColdQueriesMatchShardedReference requires the
// cold Linker queries to reproduce their sizes, configurations and
// per-component stats.

func refSearchSharded(l *Linker, opts SearchOptions) (SearchResult, bool, error) {
	res := SearchResult{Components: make([]ComponentStat, len(l.plan.Components))}
	if capped := planSpaces(l.plan, opts.MaxSpace, &res); capped {
		return res, false, nil
	}
	p := l.plan
	outs := make([]compOut, len(p.Components))
	run := func(ci int) error {
		o, err := l.solveComponent(ci, opts)
		if err != nil {
			return err
		}
		outs[ci] = o
		return nil
	}
	if err := eachComponent(len(p.Components), opts.workers(), run); err != nil {
		return res, false, err
	}
	residSize, residEvals, err := refResidualSize(l, opts.ShardOptions)
	if err != nil {
		return res, false, err
	}
	cfg := callgraph.NewConfig()
	res.NoInlineSize = residSize
	res.Size = residSize
	res.Evaluations = residEvals
	for ci := range outs {
		o := &outs[ci]
		cfg.Merge(o.cfg)
		res.NoInlineSize += o.emptySize
		res.Size += o.size
		res.Evaluations += o.evals
		res.ConfigCache = res.ConfigCache.Add(o.cc)
		res.FuncCache = res.FuncCache.Add(o.fc)
		res.Components[ci].Inlined = o.cfg.InlineCount()
		res.Components[ci].SizeDelta = o.size - o.emptySize
	}
	res.Config = cfg
	return res, true, nil
}

// refResidualSize compiles every edge-free function as one residual
// sub-module under the clean slate.
func refResidualSize(l *Linker, opts ShardOptions) (size int, evals int64, err error) {
	mod, err := l.materialize(l.opts.moduleName()+"#residual", func(pf *PlannedFunc) bool { return pf.Comp < 0 })
	if err != nil {
		return 0, 0, err
	}
	if len(mod.Funcs) == 0 {
		return 0, 0, nil
	}
	c := compile.NewWithOptions(mod, opts.Target, opts.Compile)
	return c.Size(callgraph.NewConfig()), c.Evaluations(), nil
}

func refTuneSharded(l *Linker, opts TuneOptions) (TuneResult, error) {
	p := l.plan
	res := TuneResult{Components: planComponents(p)}
	rounds := opts.Rounds
	if rounds <= 0 {
		rounds = 1
	}
	type shard struct {
		c    *compile.Compiler
		sess *autotune.Session
	}
	shards := make([]shard, len(p.Components))
	build := func(ci int) error {
		mod, err := l.Component(ci)
		if err != nil {
			return err
		}
		c := compile.NewWithOptions(mod, opts.Target, opts.Compile)
		shards[ci] = shard{c: c, sess: autotune.NewSession(c, initConfig(opts.Init, c), opts.Workers)}
		return nil
	}
	if err := eachComponent(len(p.Components), opts.workers(), build); err != nil {
		return res, err
	}
	residSize, residEvals, err := refResidualSize(l, opts.ShardOptions)
	if err != nil {
		return res, err
	}

	totalSites := len(p.Edges)
	mergedConfig := func() *callgraph.Config {
		cfg := callgraph.NewConfig()
		for _, s := range shards {
			cfg.Merge(s.sess.Config())
		}
		return cfg
	}
	baseSize := residSize
	for _, s := range shards {
		baseSize += s.sess.Size()
	}
	out := autotune.Result{
		Config:   mergedConfig(),
		Size:     baseSize,
		InitSize: baseSize,
	}
	for round := 1; round <= rounds; round++ {
		size, inlined, toggles := residSize, 0, 0
		traces := make([]autotune.RoundTrace, len(shards))
		step := func(ci int) error {
			traces[ci] = shards[ci].sess.Step()
			return nil
		}
		if err := eachComponent(len(shards), opts.workers(), step); err != nil {
			return res, err
		}
		for _, tr := range traces {
			size += tr.Size
			inlined += tr.Inlined
			toggles += tr.Toggles
		}
		out.Rounds = append(out.Rounds, autotune.RoundTrace{
			Round:      round,
			Size:       size,
			Inlined:    inlined,
			NotInlined: totalSites - inlined,
			Toggles:    toggles,
		})
		next := mergedConfig()
		if size < out.Size {
			out.Config, out.Size = next.Clone(), size
		}
		out.Final, out.FinalSize = next, size
		if toggles == 0 {
			break
		}
	}
	if out.Final == nil {
		out.Final, out.FinalSize = out.Config, out.Size
	}
	res.Evaluations = residEvals
	for _, s := range shards {
		res.Evaluations += s.c.Evaluations()
		res.ConfigCache = res.ConfigCache.Add(s.c.ConfigCacheStats())
		res.FuncCache = res.FuncCache.Add(s.c.FuncCacheStats())
	}
	out.Evaluations = res.Evaluations
	res.Result = out
	countInlined(p, out.Config, res.Components)
	return res, nil
}

// TestColdQueriesMatchShardedReference: a cold OptimalSearch and a cold
// size Tune, both Session queries on a private cache, must reproduce the
// previous sharded engines' sizes, configurations, round traces and
// per-component stats on linked-tiny and (outside -short and -race)
// linked-s. Evaluation counters may differ: residual functions now compile
// one module per unit, and a repeated component is replayed.
func TestColdQueriesMatchShardedReference(t *testing.T) {
	linkers := map[string]*Linker{"linked-tiny": tinyLinker(t)}
	if !raceEnabled && !testing.Short() {
		linkers["linked-s"] = linkedS(t)
	}
	for name, l := range linkers {
		shard := func() ShardOptions {
			return ShardOptions{
				Target:  codegen.TargetX86,
				Compile: compile.Options{FnCache: compile.NewFnCache()},
				Workers: 2,
			}
		}
		sOpts := SearchOptions{ShardOptions: shard(), MaxSpace: 1 << 20}
		got, ok, err := l.OptimalSearch(sOpts)
		if err != nil || !ok {
			t.Fatalf("%s: search ok=%v err=%v", name, ok, err)
		}
		sOpts.ShardOptions = shard()
		want, ok, err := refSearchSharded(l, sOpts)
		if err != nil || !ok {
			t.Fatalf("%s: reference search ok=%v err=%v", name, ok, err)
		}
		if got.Size != want.Size || got.NoInlineSize != want.NoInlineSize || got.SpaceTotal != want.SpaceTotal ||
			got.Config.Key() != want.Config.Key() || !reflect.DeepEqual(got.Components, want.Components) {
			t.Errorf("%s: search %d/%d %+v, reference %d/%d %+v", name,
				got.Size, got.NoInlineSize, got.Components, want.Size, want.NoInlineSize, want.Components)
		}

		for _, init := range []TuneInit{InitClean, InitOs} {
			label := fmt.Sprintf("%s init=%d", name, init)
			tOpts := TuneOptions{ShardOptions: shard(), Rounds: 4, Init: init}
			got, err := l.Tune(tOpts)
			if err != nil {
				t.Fatalf("%s: tune: %v", label, err)
			}
			tOpts.ShardOptions = shard()
			want, err := refTuneSharded(l, tOpts)
			if err != nil {
				t.Fatalf("%s: reference tune: %v", label, err)
			}
			g, w := got.Result, want.Result
			if g.Size != w.Size || g.InitSize != w.InitSize || g.FinalSize != w.FinalSize ||
				g.Config.Key() != w.Config.Key() || g.Final.Key() != w.Final.Key() ||
				!reflect.DeepEqual(g.Rounds, w.Rounds) || !reflect.DeepEqual(got.Components, want.Components) {
				t.Errorf("%s: tune %d %v %+v, reference %d %v %+v", label,
					g.Size, g.Rounds, got.Components, w.Size, w.Rounds, want.Components)
			}
		}
	}
}
