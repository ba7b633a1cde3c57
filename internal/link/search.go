package link

import (
	"fmt"
	"runtime"
	"sync"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/search"
	"optinline/internal/stats"
)

// ShardOptions configures how a linked module's per-component work is run.
type ShardOptions struct {
	// Target is the codegen target sizes are measured against.
	Target codegen.Target
	// Compile configures every compiler built for the run. Sharing one
	// FnCache here is what lets the per-component compilers reuse each
	// other's per-function compilations: its content keys are
	// module-independent, so a function compiled inside a component
	// sub-module hits when the same closure shows up elsewhere.
	//
	// Compile.Check selects the reference evaluator: one checked compiler
	// over the merged module instead of per-component shards. Results are
	// byte-identical to the sharded path — that equality is what the CLIs'
	// -check differential gates pin — and the first invariant violation
	// fails the run.
	Compile compile.Options
	// Workers follows search.Options.Workers: 0 selects GOMAXPROCS,
	// negative forces sequential. In sharded mode the pool is shared by
	// component-level parallelism; sequential mode additionally keeps at
	// most one component's compiler alive at a time, which is what makes
	// peak memory track the largest component instead of the module.
	Workers int
}

func (o ShardOptions) workers() int {
	if o.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// ComponentStat describes one call-graph component of the link plan and,
// after a run, its outcome. Every field is mode-independent: the sharded
// and merged (checked) paths fill identical values.
type ComponentStat struct {
	Index int
	Funcs int
	Edges int
	// Space is the recursive search-space size (SubspaceSize) of the
	// component; Capped reports it exceeded the requested MaxSpace.
	Space  uint64
	Capped bool
	// Inlined is the number of inline-labeled sites in the component's
	// part of the result configuration.
	Inlined int
	// SizeDelta is the component's size effect vs the clean slate
	// (optimal search only; <= 0 by optimality of the search).
	SizeDelta int
}

// SearchOptions configures OptimalSearch.
type SearchOptions struct {
	ShardOptions
	// MaxSpace aborts (ok=false) if any single component's recursive space
	// exceeds it; 0 means no bound. The bound is per component — that is
	// the unit of work sharding distributes — and is computed from the
	// plan, so both modes abort identically without compiling anything.
	MaxSpace uint64
}

// SearchResult is the outcome of a cross-module optimal search.
type SearchResult struct {
	Components   []ComponentStat
	NoInlineSize int               // merged-module size under the clean slate
	Size         int               // merged-module size under Config
	Config       *callgraph.Config // optimal labels over the planned site IDs
	SpaceTotal   uint64            // saturating sum of component spaces

	// Diagnostics (mode- and schedule-dependent; the CLIs print them on
	// stderr, never on the byte-diffed stdout).
	Evaluations int64
	ConfigCache stats.CacheStats
	FuncCache   stats.CacheStats
}

// OptimalSearch finds the optimal inlining configuration of the linked
// module by solving each call-graph component independently — the paper's
// independence theorem applied at link scale. By default it runs
// Session.Search on a private, empty component result cache: every
// component is materialized as its own sub-module and searched on its own
// compiler (own delta-engine state, own memo), components running on the
// worker pool, and a component whose content repeats within the link is
// replayed rather than solved twice. With Compile.Check one merged checked
// compiler solves the same components via OptimalCompletion. Both return
// identical configurations, sizes, and per-component stats.
//
// ok is false when a component's space exceeds MaxSpace (Components then
// carries the per-component spaces for reporting).
func (l *Linker) OptimalSearch(opts SearchOptions) (SearchResult, bool, error) {
	if !opts.Compile.Check {
		res, _, ok, err := l.coldSession().Search(opts)
		return res, ok, err
	}
	res := SearchResult{Components: make([]ComponentStat, len(l.plan.Components))}
	if capped := planSpaces(l.plan, opts.MaxSpace, &res); capped {
		return res, false, nil
	}
	if err := l.searchMerged(opts, &res); err != nil {
		return res, false, err
	}
	return res, true, nil
}

// planSpaces fills the plan-derived part of a SearchResult — per-component
// funcs/edges/space and the saturating space total — and reports whether any
// component exceeds maxSpace. The checked merged search and Session.Search
// share this prologue, so both abort identically without compiling.
func planSpaces(p *Plan, maxSpace uint64, res *SearchResult) bool {
	capped := false
	for ci := range p.Components {
		mg := p.ComponentMultigraph(ci)
		space, over := search.SubspaceSize(mg, maxSpace)
		over = over || (maxSpace > 0 && space > maxSpace)
		res.Components[ci] = ComponentStat{
			Index:  ci,
			Funcs:  len(p.Components[ci]),
			Edges:  len(mg.Edges),
			Space:  space,
			Capped: over,
		}
		capped = capped || over
		res.SpaceTotal = satAdd(res.SpaceTotal, space)
	}
	return capped
}

// compOut is one component's solved search outcome plus the solving
// compiler's diagnostics.
type compOut struct {
	cfg       *callgraph.Config
	size      int
	emptySize int
	evals     int64
	cc, fc    stats.CacheStats
}

// solveComponent materializes one component sub-module and searches it: the
// unit of work a Session's search runs for every component it cannot
// replay.
func (l *Linker) solveComponent(ci int, opts SearchOptions) (compOut, error) {
	mod, err := l.Component(ci)
	if err != nil {
		return compOut{}, err
	}
	c := compile.NewWithOptions(mod, opts.Target, opts.Compile)
	emptySize := c.Size(callgraph.NewConfig())
	sres, ok := search.Optimal(c, search.Options{
		Workers:  opts.Workers,
		MaxSpace: opts.MaxSpace,
	})
	if !ok {
		// Unreachable: the per-component space was bounded from the
		// plan before any compiler was built.
		return compOut{}, fmt.Errorf("link: component %d space exceeded cap after plan check", ci)
	}
	return compOut{
		cfg:       sres.Config,
		size:      sres.Size,
		emptySize: emptySize,
		evals:     c.Evaluations(),
		cc:        c.ConfigCacheStats(),
		fc:        c.FuncCacheStats(),
	}, nil
}

// searchMerged is the reference path: one compiler over the fully linked
// module, each component solved in place by OptimalCompletion over the
// merged graph's own component subgraphs, taken from the merged compiler's
// graph so that the reference path shares nothing with the plan. They are
// node-order-isomorphic to the component sub-modules' graphs and carry the
// same site IDs, so partition-edge decisions and leaf configurations match
// the sharded path exactly (TestPlanMatchesMaterializedGraph pins the
// per-index correspondence).
func (l *Linker) searchMerged(opts SearchOptions, res *SearchResult) error {
	mod, err := l.Link()
	if err != nil {
		return err
	}
	c := compile.NewWithOptions(mod, opts.Target, opts.Compile)
	subs := search.ComponentSubgraphs(c.Graph())
	if len(subs) != len(l.plan.Components) {
		return fmt.Errorf("link: merged module has %d components, plan has %d", len(subs), len(l.plan.Components))
	}
	emptySize := c.Size(callgraph.NewConfig())
	cfg := callgraph.NewConfig()
	for ci := range l.plan.Components {
		mg := subs[ci]
		if len(mg.Edges) != res.Components[ci].Edges {
			return fmt.Errorf("link: component %d has %d edges merged, %d planned", ci, len(mg.Edges), res.Components[ci].Edges)
		}
		ccfg, csize := search.OptimalCompletion(c, mg, callgraph.NewConfig(), search.Options{
			Workers: opts.Workers,
		})
		res.Components[ci].Inlined = ccfg.InlineCount()
		res.Components[ci].SizeDelta = csize - emptySize
		cfg.Merge(ccfg)
	}
	res.NoInlineSize = emptySize
	res.Size = c.Size(cfg)
	res.Config = cfg
	res.Evaluations = c.Evaluations()
	res.ConfigCache = c.ConfigCacheStats()
	res.FuncCache = c.FuncCacheStats()
	return c.CheckFailure()
}

// eachComponent runs fn(ci) for every component index on up to workers
// goroutines (sequentially when workers <= 1), failing fast on the first
// error. Output slots are per-index, so scheduling cannot reorder results.
func eachComponent(n, workers int, fn func(ci int) error) error {
	if workers <= 1 || n <= 1 {
		for ci := 0; ci < n; ci++ {
			if err := fn(ci); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > n {
		workers = n
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
		ferr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if ferr != nil || next >= n {
					mu.Unlock()
					return
				}
				ci := next
				next++
				mu.Unlock()
				if err := fn(ci); err != nil {
					mu.Lock()
					if ferr == nil {
						ferr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return ferr
}

func satAdd(a, b uint64) uint64 {
	if a > ^uint64(0)-b {
		return ^uint64(0)
	}
	return a + b
}
