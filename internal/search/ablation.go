package search

import "optinline/internal/graph"

// Selector picks the partition edge at a binary node of the inlining tree.
// The choice does not affect the optimality of the search, only how many
// configurations it must evaluate (Section 3.2 of the paper).
type Selector func(mg *graph.Multigraph) graph.Edge

// selector is a Selector that may use its caller's kernel scratch.
type selector func(s *graph.Scratch, mg *graph.Multigraph) graph.Edge

// scratchless adapts a Selector, which brings its own memory.
func (sel Selector) scratchless() selector {
	return func(_ *graph.Scratch, mg *graph.Multigraph) graph.Edge { return sel(mg) }
}

// SelectFirstEdge is the ablation baseline: always partition on the first
// remaining edge, ignoring graph structure. On bridge-rich graphs this
// degenerates toward the naive 2^E exploration.
func SelectFirstEdge(mg *graph.Multigraph) graph.Edge {
	if len(mg.Edges) == 0 {
		panic("search: SelectFirstEdge on empty graph")
	}
	return mg.Edges[0]
}

// SelectLowestID partitions on the lowest-numbered edge; another
// structure-blind baseline that is stable under edge reordering.
func SelectLowestID(mg *graph.Multigraph) graph.Edge {
	if len(mg.Edges) == 0 {
		panic("search: SelectLowestID on empty graph")
	}
	best := mg.Edges[0]
	for _, e := range mg.Edges[1:] {
		if e.ID < best.ID {
			best = e
		}
	}
	return best
}

// SpaceSizeWith counts the recursively partitioned space under an arbitrary
// partition-edge selector, for ablating the paper's heuristic. Semantics
// match RecursiveSpaceSize.
func SpaceSizeWith(g interface{ Undirected() *graph.Multigraph }, limit uint64, sel Selector) (uint64, bool) {
	return countSpace(g.Undirected(), limit, sel.scratchless())
}
