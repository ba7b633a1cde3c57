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
// stepping. The size objective runs as Session.Tune on a private, empty
// component result cache, so a cold query shares nothing with other
// queries. With Compile.Check the same session runs as one whole-module
// autotune.Tune on a merged checked compiler; traces, configurations, and
// sizes are identical either way. Cycle objectives always run on the merged
// module (tuneCyclesMerged).
func (l *Linker) Tune(opts TuneOptions) (TuneResult, error) {
	if opts.Objective == ObjectiveSize && !opts.Compile.Check {
		res, _, err := l.coldSession().Tune(opts)
		return res, err
	}
	res := TuneResult{Components: planComponents(l.plan)}
	var err error
	if opts.Objective != ObjectiveSize {
		err = l.tuneCyclesMerged(opts, &res)
	} else {
		err = l.tuneMerged(opts, &res)
	}
	if err != nil {
		return res, err
	}
	countInlined(l.plan, res.Result.Config, res.Components)
	return res, nil
}

// planComponents returns the plan-derived part of every component's stats.
func planComponents(p *Plan) []ComponentStat {
	out := make([]ComponentStat, len(p.Components))
	for ci := range p.Components {
		out[ci] = ComponentStat{
			Index: ci,
			Funcs: len(p.Components[ci]),
			Edges: len(p.ComponentEdges(ci)),
		}
	}
	return out
}

// countInlined sets every component's Inlined to its share of cfg.
func countInlined(p *Plan, cfg *callgraph.Config, comps []ComponentStat) {
	for ci := range comps {
		n := 0
		for _, e := range p.ComponentEdges(ci) {
			if cfg.Inline(e.Site) {
				n++
			}
		}
		comps[ci].Inlined = n
	}
}

func initConfig(kind TuneInit, c *compile.Compiler) *callgraph.Config {
	if kind == InitOs {
		return heuristic.OsConfig(c.Module(), c.Graph())
	}
	return callgraph.NewConfig()
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
