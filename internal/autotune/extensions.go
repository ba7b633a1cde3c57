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
// With both extensions disabled it is equivalent to Tune.
func TuneExtended(c *compile.Compiler, init *callgraph.Config, opts ExtOptions) Result {
	rounds := opts.Rounds
	if rounds <= 0 {
		rounds = 1
	}
	g := c.Graph()
	allSites := g.Sites()

	base := callgraph.NewConfig()
	if init != nil {
		base = init.Clone()
	}
	sized := c.Sized(base)
	baseSize := sized.Size()
	res := Result{Config: base.Clone(), Size: baseSize, InitSize: baseSize}

	active := allSites // sites to evaluate this round
	for round := 1; round <= rounds; round++ {
		next, toggled := extRound(c, g, sized, baseSize, active, opts)
		// toggled can revisit a site (a single-edge toggle later overridden
		// by a winning group), so rebase on the configuration diff, not the
		// toggle log.
		nextSized := c.Rebase(sized, sized.Config().DiffSites(next))
		nextSize := nextSized.Size()
		res.Rounds = append(res.Rounds, RoundTrace{
			Round:      round,
			Size:       nextSize,
			Inlined:    next.InlineCount(),
			NotInlined: len(allSites) - next.InlineCount(),
			Toggles:    len(toggled),
		})
		if nextSize < res.Size {
			res.Config, res.Size = next.Clone(), nextSize
		}
		res.Final, res.FinalSize = next, nextSize
		if len(toggled) == 0 {
			break
		}
		sized, baseSize = nextSized, nextSize
		if opts.Incremental {
			active = neighbourhood(g, toggled)
		}
	}
	if res.Final == nil {
		res.Final, res.FinalSize = res.Config, res.Size
	}
	if opts.ExactComponents > 0 {
		polishComponents(c, &res, opts)
	}
	res.Evaluations = c.Evaluations()
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

// extRound evaluates single-edge toggles over the active sites plus,
// optionally, per-callee group configurations — all as deltas against the
// round's base handle. It returns the next configuration and the toggled
// sites.
func extRound(c *compile.Compiler, g *callgraph.Graph, base *compile.Sized, baseSize int, active []int, opts ExtOptions) (*callgraph.Config, []int) {
	toggleSets := make([][]int, 0, len(active)+8)
	for _, s := range active {
		toggleSets = append(toggleSets, []int{s})
	}

	// Group candidates: internal callees with >= 2 call sites not yet all
	// inlined. The group configuration inlines all of them at once.
	type group struct {
		callee string
		sites  []int
	}
	var groups []group
	if opts.GroupCallees {
		activeSet := make(map[int]bool, len(active))
		for _, s := range active {
			activeSet[s] = true
		}
		byCallee := make(map[string][]int)
		for _, e := range g.Edges {
			callee := c.Module().Func(e.Callee)
			if callee == nil || callee.Exported {
				continue
			}
			byCallee[e.Callee] = append(byCallee[e.Callee], e.Site)
		}
		for callee, sites := range byCallee {
			if len(sites) < 2 {
				continue
			}
			var missing []int // group sites the base does not inline yet
			touchesActive := false
			for _, s := range sites {
				if !base.Inline(s) {
					missing = append(missing, s)
				}
				if activeSet[s] {
					touchesActive = true
				}
			}
			if len(missing) == 0 || !touchesActive {
				continue
			}
			groups = append(groups, group{callee: callee, sites: sites})
			toggleSets = append(toggleSets, missing)
		}
	}

	sizes := c.SizeDeltaParallel(base, toggleSets, opts.Workers)

	next := base.Config()
	var toggled []int
	for i, s := range active {
		toInline := !base.Inline(s)
		keep := false
		if toInline {
			keep = sizes[i] <= baseSize
		} else {
			keep = sizes[i] < baseSize
		}
		if keep {
			next.Set(s, toInline)
			toggled = append(toggled, s)
		}
	}
	// Apply winning groups (strict improvement only; group toggles are
	// additions, so later groups see earlier ones' edges already set).
	for gi, grp := range groups {
		if sizes[len(active)+gi] < baseSize {
			for _, s := range grp.sites {
				if !next.Inline(s) {
					next.Set(s, true)
					toggled = append(toggled, s)
				}
			}
		}
	}
	return next, toggled
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
