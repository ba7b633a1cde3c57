package autotune

import (
	"optinline/internal/callgraph"
	"optinline/internal/compile"
	"optinline/internal/search"
)

// The paper points at two straightforward extensions of the local
// autotuner; both are implemented here.
//
// Group toggles (Section 5.2.1): "for each callee with internal linkage and
// many callers, an additional configuration with all of them inlined must
// be checked" — the win of inlining *every* caller of a callee (which
// deletes the callee) is invisible to one-edge-at-a-time toggling.
//
// Incremental rounds (Section 6): "a practical implementation can take
// advantage of multiple properties to reduce the number of necessary
// evaluations, e.g. only re-tuning parts of call graphs that change between
// rounds" — after round one, only edges adjacent to functions touched by a
// kept toggle can have a changed cost, so only those need re-evaluation.

// ExtOptions configures TuneExtended.
type ExtOptions struct {
	Options
	// GroupCallees additionally evaluates, per internal multi-caller
	// callee, the configuration that inlines every call site targeting it.
	GroupCallees bool
	// Incremental restricts rounds after the first to edges in the
	// neighbourhood of the previous round's kept toggles.
	Incremental bool
	// ExactComponents, when nonzero, polishes the tuned result after the
	// rounds: every call-graph component whose recursive search space fits
	// this many tree evaluations is re-solved exactly under the tuned labels
	// of the rest of the module. Component optima are
	// independent of outside labels (the paper's independence theorem), so
	// each polish yields the true component optimum given the rest and the
	// result is monotonically no worse than the tuned one.
	ExactComponents uint64
}

// TuneExtended runs the autotuner with the paper's suggested extensions.
// With every extension disabled it is Tune.
func TuneExtended(c *compile.Compiler, init *callgraph.Config, opts ExtOptions) Result {
	res := newCompilerSession(c, nil, sizeCost, init, opts).run(opts.Rounds)
	if opts.ExactComponents > 0 {
		polishComponents(c, &res, opts)
		res.Evaluations = c.Evaluations()
	}
	return res
}

// polishComponents re-solves every small-enough call-graph component exactly
// under the tuned labels of the rest of the module, adopting each component
// optimum as it is found. Components are processed in canonical order and
// each solve fixes the labels adopted so far, so the polish is deterministic
// and its result monotonically improves on the tuned configuration.
func polishComponents(c *compile.Compiler, res *Result, opts ExtOptions) {
	sOpts := search.Options{Workers: opts.Workers}
	for _, comp := range search.ComponentSubgraphs(c.Graph()) {
		if n, capped := search.SubspaceSize(comp, opts.ExactComponents); capped || n > opts.ExactComponents {
			continue
		}
		decided := res.Config.Clone()
		for _, s := range comp.EdgeIDs() {
			decided.Set(s, false)
		}
		cfg, size := search.OptimalCompletion(c, comp, decided, sOpts)
		if size < res.Size {
			res.Config, res.Size = cfg, size
		}
	}
}

// calleeGroups returns, for every internal callee with at least two
// candidate call sites, those sites — the group toggle candidates — in
// order of each callee's first site.
func calleeGroups(c *compile.Compiler) [][]int {
	var groups [][]int
	index := make(map[string]int)
	for _, e := range c.Graph().Edges {
		callee := c.Module().Func(e.Callee)
		if callee == nil || callee.Exported {
			continue
		}
		gi, ok := index[e.Callee]
		if !ok {
			gi = len(groups)
			index[e.Callee] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], e.Site)
	}
	out := groups[:0]
	for _, grp := range groups {
		if len(grp) >= 2 {
			out = append(out, grp)
		}
	}
	return out
}

// neighbourhood returns the sites adjacent (sharing a caller or callee
// function) to any of the toggled sites.
func neighbourhood(g *callgraph.Graph, toggled []int) []int {
	touched := make(map[string]bool)
	for _, s := range toggled {
		if e := g.Edge(s); e != nil {
			touched[e.Caller] = true
			touched[e.Callee] = true
		}
	}
	var out []int
	for _, e := range g.Edges {
		if touched[e.Caller] || touched[e.Callee] {
			out = append(out, e.Site)
		}
	}
	return out
}
