// Package graph provides the undirected multigraph algorithms the inlining
// search space formulation needs: connected components, bridges, and vertex
// eccentricity. Call graphs are directed, but connectivity w.r.t. inlining
// is undirected (inlining A→B couples A and B regardless of direction), so
// the search operates on the undirected view.
package graph

import "sort"

// Edge is an undirected edge with a stable identity. Parallel edges and
// self-loops are permitted; identity distinguishes parallel edges.
type Edge struct {
	ID   int
	U, V int
}

// Multigraph is an undirected multigraph over nodes 0..N-1.
type Multigraph struct {
	N     int
	Edges []Edge
}

// RemoveEdge returns a copy of the graph without the identified edge.
func (g *Multigraph) RemoveEdge(id int) *Multigraph {
	return &Multigraph{N: g.N, Edges: g.AppendRemoved(make([]Edge, 0, len(g.Edges)), id)}
}

// AppendRemoved appends the graph's edges but the identified one to dst, in
// order, and returns the extended slice: RemoveEdge's edge list, in memory
// the caller provides.
func (g *Multigraph) AppendRemoved(dst []Edge, id int) []Edge {
	for _, e := range g.Edges {
		if e.ID != id {
			dst = append(dst, e)
		}
	}
	return dst
}

// ContractEdge returns a copy of the graph with the identified edge
// contracted: its endpoints are merged (the contracted edge disappears;
// other edges between the endpoints become self-loops). Node count is
// unchanged; the absorbed endpoint keeps no incident edges. This models
// inlining an edge in the search-space call-graph (Fig. 2(c)).
func (g *Multigraph) ContractEdge(id int) *Multigraph {
	return &Multigraph{N: g.N, Edges: g.AppendContracted(make([]Edge, 0, len(g.Edges)), id)}
}

// AppendContracted appends the graph's edges, with the identified edge
// contracted, to dst and returns the extended slice: ContractEdge's edge
// list, in memory the caller provides. Without such an edge it appends
// every edge unchanged.
func (g *Multigraph) AppendContracted(dst []Edge, id int) []Edge {
	keep, drop := -1, -1
	for _, e := range g.Edges {
		if e.ID == id {
			keep, drop = min(e.U, e.V), max(e.U, e.V)
			break
		}
	}
	for _, e := range g.Edges {
		if e.ID == id {
			continue
		}
		if e.U == drop {
			e.U = keep
		}
		if e.V == drop {
			e.V = keep
		}
		dst = append(dst, e)
	}
	return dst
}

// EdgeIDs returns the identities of every edge, ascending.
func (g *Multigraph) EdgeIDs() []int {
	ids := make([]int, 0, len(g.Edges))
	for _, e := range g.Edges {
		ids = append(ids, e.ID)
	}
	sort.Ints(ids)
	return ids
}
