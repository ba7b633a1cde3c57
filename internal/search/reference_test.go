package search

import (
	"optinline/internal/callgraph"
	"optinline/internal/compile"
	"optinline/internal/graph"
)

// This file keeps the leaf pricing that preceded the incremental tree
// pricing as a reference: every leaf and combine evaluation is priced as
// a size delta of the clean slate by every inline label of its
// configuration, against one clean-slate handle built eagerly when the
// search starts. TestTreePricingMatchesReference requires the tree pricing
// to reproduce its answers and counters.

// refEvaluator is the clean-slate evaluator; it shares the production
// evaluator's worker pool.
type refEvaluator struct {
	*evaluator
	base *compile.Sized // clean-slate handle; nil in checked mode
}

func newRefEvaluator(c *compile.Compiler, opts Options) *refEvaluator {
	return &refEvaluator{evaluator: newEvaluator(c, opts), base: c.Derive(nil, nil)}
}

// refOptimal is Optimal on the reference evaluator.
func refOptimal(c *compile.Compiler, opts Options) (Result, bool) {
	g := c.Graph()
	space, capped := RecursiveSpaceSize(g, opts.MaxSpace)
	if opts.MaxSpace > 0 && (capped || space > opts.MaxSpace) {
		return Result{SpaceSize: space}, false
	}
	cfg, size := newRefEvaluator(c, opts).run(g.Undirected(), callgraph.NewConfig())
	return Result{Config: cfg, Size: size, SpaceSize: space, Evaluations: c.Evaluations()}, true
}

// refOptimalCompletion is OptimalCompletion on the reference evaluator.
func refOptimalCompletion(c *compile.Compiler, mg *graph.Multigraph, decided *callgraph.Config, opts Options) (*callgraph.Config, int) {
	return newRefEvaluator(c, opts).run(mg, decided.Clone())
}

func (ev *refEvaluator) sizeOf(cfg *callgraph.Config) int {
	if ev.base != nil {
		return ev.c.SizeDelta(ev.base, cfg.InlineSites())
	}
	return ev.c.Size(cfg)
}

func (ev *refEvaluator) run(mg *graph.Multigraph, decided *callgraph.Config) (*callgraph.Config, int) {
	s := scratchPool.Get().(*graph.Scratch)
	defer scratchPool.Put(s)
	return ev.eval(s, mg, decided)
}

func (ev *refEvaluator) eval(s *graph.Scratch, mg *graph.Multigraph, decided *callgraph.Config) (*callgraph.Config, int) {
	if len(mg.Edges) == 0 {
		cfg := decided.Clone()
		return cfg, ev.sizeOf(cfg)
	}
	if subs := edgeComponents(s, mg); subs != nil {
		combined := decided.Clone()
		results := make([]*callgraph.Config, len(subs))
		ev.parallelEach(s, len(subs), func(s *graph.Scratch, i int) {
			results[i], _ = ev.eval(s, &subs[i], decided)
		})
		for _, sub := range results {
			combined.Merge(sub)
		}
		return combined, ev.sizeOf(combined)
	}
	e := selectPartitionEdge(s, mg)
	var cfg1, cfg2 *callgraph.Config
	var size1, size2 int
	ev.parallelEach(s, 2, func(s *graph.Scratch, i int) {
		if i == 0 {
			cfg1, size1 = ev.eval(s, mg.RemoveEdge(e.ID), decided)
		} else {
			cfg2, size2 = ev.eval(s, mg.ContractEdge(e.ID), decided.Clone().Set(e.ID, true))
		}
	})
	if size1 <= size2 {
		return cfg1, size1
	}
	return cfg2, size2
}
