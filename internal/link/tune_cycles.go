package link

import (
	"optinline/internal/autotune"
	"optinline/internal/compile"
)

// TuneObjective selects what a linked tuning session minimizes.
type TuneObjective int

const (
	// ObjectiveSize minimizes compiled bytes (the default).
	ObjectiveSize TuneObjective = iota
	// ObjectiveWeighted minimizes bytes + Lambda·modelled cycles.
	ObjectiveWeighted
	// ObjectiveCycles minimizes modelled cycles alone.
	ObjectiveCycles
)

// tuneCyclesMerged runs a cycle-aware tuning session on the merged module.
//
// Cycle objectives never shard. The byte objective is component-separable —
// a toggle's size effect is confined to its component, which is what makes
// the lockstep sharded sessions an exact image of the whole-module tuner.
// The cycle objective is not: the i-cache replay threads one LRU state
// through the entire profiled frame sequence, so inlining a site in one
// component changes the miss penalties charged to frames of every other
// component that shares cache lines with it. Pretending otherwise would make
// the merged reference disagree with the sharded path, so the sharded path
// simply delegates here and stdout stays mode-independent by construction.
func (l *Linker) tuneCyclesMerged(opts TuneOptions, res *TuneResult) error {
	mod, err := l.Link()
	if err != nil {
		return err
	}
	c := compile.NewWithOptions(mod, opts.Target, opts.Compile)
	entry := opts.Entry
	if entry == "" {
		entry = "entry"
	}
	// Profile the no-inline baseline: the pricer reprices every other
	// configuration from this one interpretation.
	pricer, _, err := c.ProfileBaseline(entry, opts.Args, opts.Fuel, compile.CycleOptions{CacheBytes: opts.CacheBytes})
	if err != nil {
		return err
	}
	aOpts := autotune.Options{Rounds: opts.Rounds, Workers: opts.Workers}
	if opts.Objective == ObjectiveCycles {
		res.Result = autotune.TuneCycles(c, pricer, initConfig(opts.Init, c), aOpts)
	} else {
		res.Result = autotune.TuneWeighted(c, pricer, opts.Lambda, initConfig(opts.Init, c), aOpts)
	}
	res.Evaluations = c.Evaluations()
	res.ConfigCache = c.ConfigCacheStats()
	res.FuncCache = c.FuncCacheStats()
	res.Cycle = pricer.Stats()
	return c.CheckFailure()
}
