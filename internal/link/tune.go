package link

import (
	"optinline/internal/autotune"
	"optinline/internal/callgraph"
	"optinline/internal/compile"
	"optinline/internal/heuristic"
	"optinline/internal/stats"
)

// TuneInit selects the tuning starting point.
type TuneInit int

const (
	// InitClean starts from the all-no-inline configuration.
	InitClean TuneInit = iota
	// InitOs starts from the -Os heuristic configuration. The heuristic is
	// component-local (estimates and caller counts propagate only along
	// candidate edges), so computing it per component sub-module or on the
	// merged module yields the same labels — both modes start identically.
	InitOs
)

// TuneOptions configures Tune.
type TuneOptions struct {
	ShardOptions
	// Rounds bounds the number of global tuning rounds; 0 means 1.
	Rounds int
	// Init selects the starting configuration.
	Init TuneInit
	// Objective selects what the session minimizes. Non-size objectives
	// price cycles against a profile collected by interpreting the linked
	// module's Entry with Args, and always run on the merged module —
	// the i-cache couples components, so cycle prices are not
	// component-separable (see tuneCyclesMerged).
	Objective TuneObjective
	// Lambda weighs cycles against bytes for ObjectiveWeighted.
	Lambda float64
	// Entry names the profiled root for cycle objectives; "" means "entry".
	Entry string
	// Args are the profiled root's arguments.
	Args []int64
	// Fuel bounds the profiling interpretation; 0 uses the interpreter
	// default.
	Fuel int64
	// CacheBytes sets the modelled i-cache capacity; 0 uses the
	// interpreter default.
	CacheBytes int
}

// TuneResult is the outcome of a cross-module tuning session.
type TuneResult struct {
	Components []ComponentStat
	// Result aggregates the session exactly as a whole-module
	// autotune.Tune over the linked module reports it: merged per-round
	// traces, best/final configurations and sizes over planned site IDs.
	Result autotune.Result

	// Diagnostics (mode-dependent; stderr only).
	Evaluations int64
	ConfigCache stats.CacheStats
	FuncCache   stats.CacheStats
	// Cycle reports the cycle pricer's counters for cycle-aware sessions.
	Cycle compile.CyclePricerStats
}

// Tune runs the paper's local autotuner over the linked module, sharded by
// call-graph component: one tuning session per component, all stepped in
// lockstep global rounds (a round of the whole-module tuner IS an
// independent round per component — each probe toggles one site against the
// shared base, and a toggle's size effect is confined to its component).
// Converged components replay their fixpoint for free while the rest keep
// stepping. With Compile.Check the same session runs as one whole-module
// autotune.Tune on a merged checked compiler; traces, configurations, and
// sizes are identical either way.
func (l *Linker) Tune(opts TuneOptions) (TuneResult, error) {
	p := l.plan
	res := TuneResult{Components: make([]ComponentStat, len(p.Components))}
	for ci := range p.Components {
		res.Components[ci] = ComponentStat{
			Index: ci,
			Funcs: len(p.Components[ci]),
			Edges: len(p.ComponentEdges(ci)),
		}
	}
	var err error
	switch {
	case opts.Objective != ObjectiveSize:
		err = l.tuneCyclesMerged(opts, &res)
	case opts.Compile.Check:
		err = l.tuneMerged(opts, &res)
	default:
		err = l.tuneSharded(opts, &res)
	}
	if err != nil {
		return res, err
	}
	for ci := range res.Components {
		n := 0
		for _, e := range p.ComponentEdges(ci) {
			if res.Result.Config.Inline(e.Site) {
				n++
			}
		}
		res.Components[ci].Inlined = n
	}
	return res, nil
}

func initConfig(kind TuneInit, c *compile.Compiler) *callgraph.Config {
	if kind == InitOs {
		return heuristic.OsConfig(c.Module(), c.Graph())
	}
	return callgraph.NewConfig()
}

// tuneSharded runs one autotune.Session per component in lockstep rounds.
func (l *Linker) tuneSharded(opts TuneOptions, res *TuneResult) error {
	p := l.plan
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
		return err
	}
	residSize, residEvals, err := l.residualSize(opts.ShardOptions)
	if err != nil {
		return err
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
		// Step every component; converged sessions replay their fixpoint
		// without compiling (see autotune.Session.Step), so this stays a
		// faithful — and cheap — image of the whole-module round.
		size, inlined, toggles := residSize, 0, 0
		traces := make([]autotune.RoundTrace, len(shards))
		step := func(ci int) error {
			traces[ci] = shards[ci].sess.Step()
			return nil
		}
		if err := eachComponent(len(shards), opts.workers(), step); err != nil {
			return err
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
	return nil
}

// tuneMerged is the reference path: a plain whole-module tuning session on
// the linked module.
func (l *Linker) tuneMerged(opts TuneOptions, res *TuneResult) error {
	mod, err := l.Link()
	if err != nil {
		return err
	}
	c := compile.NewWithOptions(mod, opts.Target, opts.Compile)
	res.Result = autotune.Tune(c, initConfig(opts.Init, c), autotune.Options{
		Rounds:  opts.Rounds,
		Workers: opts.Workers,
	})
	res.Evaluations = c.Evaluations()
	res.ConfigCache = c.ConfigCacheStats()
	res.FuncCache = c.FuncCacheStats()
	return c.CheckFailure()
}
