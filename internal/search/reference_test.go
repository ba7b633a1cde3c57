package search

import (
	"sync"

	"optinline/internal/callgraph"
	"optinline/internal/compile"
	"optinline/internal/graph"
)

// This file keeps two earlier evaluators as references for
// TestTreePricingMatchesReference:
//
//   - refWalk, the tree walk that preceded the walker: each node allocates
//     its children's edge lists (RemoveEdge, ContractEdge, Components),
//     its configuration (a clone of its parent's, or the components'
//     merge) and its handle, derived from its parent's with the labels the
//     two differ by, and children run through parallelEach's closures.
//     The walker must reproduce its answers and every counter, content-
//     cache hits included.
//   - refEvaluator, the leaf pricing that preceded the incremental tree
//     pricing: every leaf and combine evaluation is priced as a size delta
//     of the clean slate by every inline label of its configuration,
//     against one clean-slate handle built eagerly when the search starts.
//     The walker must reproduce its answers and counters, except content-
//     cache hits, which may only fall.

// refPool is the evaluators' worker pool as it was before the walker.
type refPool struct {
	tokens chan struct{} // nil means sequential
}

func newRefPool(c *compile.Compiler, opts Options) refPool {
	return refPool{tokens: newEvaluator(c, opts).tokens}
}

// parallelEach runs n closures, possibly concurrently if worker tokens are
// available; it always runs index 0 on the calling goroutine. Closures run
// on the caller's goroutine share its scratch s; a spawned one takes its
// own from the pool.
func (p refPool) parallelEach(s *graph.Scratch, n int, fn func(s *graph.Scratch, i int)) {
	if p.tokens == nil || n <= 1 {
		for i := 0; i < n; i++ {
			fn(s, i)
		}
		return
	}
	done := make(chan int, n-1)
	spawned := 0
	for i := 1; i < n; i++ {
		select {
		case p.tokens <- struct{}{}:
			spawned++
			go func(ix int) {
				defer func() { <-p.tokens }()
				gs := scratchPool.Get().(*graph.Scratch)
				fn(gs, ix)
				scratchPool.Put(gs)
				done <- ix
			}(i)
		default:
			fn(s, i)
		}
	}
	fn(s, 0)
	for ; spawned > 0; spawned-- {
		<-done
	}
}

// refWalk is the tree walk that preceded the walker.
type refWalk struct {
	c    *compile.Compiler
	pool refPool
}

// refWalkOptimal is Optimal on the walk reference.
func refWalkOptimal(c *compile.Compiler, opts Options) (Result, bool) {
	g := c.Graph()
	space, capped := RecursiveSpaceSize(g, opts.MaxSpace)
	if opts.MaxSpace > 0 && (capped || space > opts.MaxSpace) {
		return Result{SpaceSize: space}, false
	}
	ev := &refWalk{c: c, pool: newRefPool(c, opts)}
	cfg, size := ev.run(g.Undirected(), callgraph.NewConfig())
	return Result{Config: cfg.Clone(), Size: size, SpaceSize: space, Evaluations: c.Evaluations()}, true
}

// refWalkCompletion is OptimalCompletion on the walk reference.
func refWalkCompletion(c *compile.Compiler, mg *graph.Multigraph, decided *callgraph.Config, opts Options) (*callgraph.Config, int) {
	ev := &refWalk{c: c, pool: newRefPool(c, opts)}
	cfg, size := ev.run(mg, decided)
	return cfg.Clone(), size
}

// refLabels is a node's labels and lazily derived handle, each node in
// memory of its own.
type refLabels struct {
	cfg    *callgraph.Config // not mutated once the node exists
	parent *refLabels        // nil at the clean-slate root

	once   sync.Once
	handle *compile.Sized
}

func (l *refLabels) sized(c *compile.Compiler) *compile.Sized {
	l.once.Do(func() {
		if l.parent == nil {
			l.handle = c.Derive(new(compile.Sized), nil, l.cfg, nil)
			return
		}
		l.handle = c.Derive(new(compile.Sized), l.parent.sized(c), l.cfg, l.cfg.DiffSites(l.parent.cfg))
	})
	return l.handle
}

func (ev *refWalk) sizeOf(l *refLabels) int {
	return ev.c.SizeVia(l.cfg, func() *compile.Sized { return l.sized(ev.c) })
}

func (ev *refWalk) run(mg *graph.Multigraph, decided *callgraph.Config) (*callgraph.Config, int) {
	s := scratchPool.Get().(*graph.Scratch)
	defer scratchPool.Put(s)
	at := &refLabels{cfg: callgraph.NewConfig()}
	if decided.InlineCount() > 0 {
		at = &refLabels{cfg: decided, parent: at}
	}
	return ev.eval(s, mg, at)
}

func (ev *refWalk) eval(s *graph.Scratch, mg *graph.Multigraph, at *refLabels) (*callgraph.Config, int) {
	if len(mg.Edges) == 0 {
		return at.cfg, ev.sizeOf(at)
	}
	if subs := edgeComponents(s, mg); subs != nil {
		results := make([]*callgraph.Config, len(subs))
		ev.pool.parallelEach(s, len(subs), func(s *graph.Scratch, i int) {
			results[i], _ = ev.eval(s, &subs[i], at)
		})
		combined := at.cfg.Clone()
		for _, sub := range results {
			combined.Merge(sub)
		}
		return combined, ev.sizeOf(&refLabels{cfg: combined, parent: at})
	}
	e := selectPartitionEdge(s, mg)
	var cfg1, cfg2 *callgraph.Config
	var size1, size2 int
	ev.pool.parallelEach(s, 2, func(s *graph.Scratch, i int) {
		if i == 0 {
			cfg1, size1 = ev.eval(s, mg.RemoveEdge(e.ID), at)
		} else {
			inl := &refLabels{cfg: at.cfg.Clone().Set(e.ID, true), parent: at}
			cfg2, size2 = ev.eval(s, mg.ContractEdge(e.ID), inl)
		}
	})
	if size1 <= size2 {
		return cfg1, size1
	}
	return cfg2, size2
}

// refEvaluator is the clean-slate evaluator.
type refEvaluator struct {
	c    *compile.Compiler
	pool refPool
	base *compile.Sized // clean-slate handle; nil in checked mode
}

func newRefEvaluator(c *compile.Compiler, opts Options) *refEvaluator {
	clean := callgraph.NewConfig()
	return &refEvaluator{c: c, pool: newRefPool(c, opts), base: c.Derive(new(compile.Sized), nil, clean, nil)}
}

// refOptimal is Optimal on the clean-slate reference.
func refOptimal(c *compile.Compiler, opts Options) (Result, bool) {
	g := c.Graph()
	space, capped := RecursiveSpaceSize(g, opts.MaxSpace)
	if opts.MaxSpace > 0 && (capped || space > opts.MaxSpace) {
		return Result{SpaceSize: space}, false
	}
	cfg, size := newRefEvaluator(c, opts).run(g.Undirected(), callgraph.NewConfig())
	return Result{Config: cfg, Size: size, SpaceSize: space, Evaluations: c.Evaluations()}, true
}

// refOptimalCompletion is OptimalCompletion on the clean-slate reference.
func refOptimalCompletion(c *compile.Compiler, mg *graph.Multigraph, decided *callgraph.Config, opts Options) (*callgraph.Config, int) {
	return newRefEvaluator(c, opts).run(mg, decided.Clone())
}

func (ev *refEvaluator) sizeOf(cfg *callgraph.Config) int {
	if ev.base != nil {
		return ev.c.SizeVia(cfg, func() *compile.Sized {
			return ev.c.Derive(new(compile.Sized), ev.base, cfg, cfg.InlineSites())
		})
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
		ev.pool.parallelEach(s, len(subs), func(s *graph.Scratch, i int) {
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
	ev.pool.parallelEach(s, 2, func(s *graph.Scratch, i int) {
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
