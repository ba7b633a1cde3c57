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
	ng := &Multigraph{N: g.N, Edges: make([]Edge, 0, len(g.Edges)-1)}
	for _, e := range g.Edges {
		if e.ID != id {
			ng.Edges = append(ng.Edges, e)
		}
	}
	return ng
}

// ContractEdge returns a copy of the graph with the identified edge
// contracted: its endpoints are merged (the contracted edge disappears;
// other edges between the endpoints become self-loops). Node count is
// unchanged; the absorbed endpoint keeps no incident edges. This models
// inlining an edge in the search-space call-graph (Fig. 2(c)).
func (g *Multigraph) ContractEdge(id int) *Multigraph {
	var target Edge
	found := false
	for _, e := range g.Edges {
		if e.ID == id {
			target, found = e, true
			break
		}
	}
	if !found {
		return &Multigraph{N: g.N, Edges: append([]Edge(nil), g.Edges...)}
	}
	keep, drop := target.U, target.V
	if keep > drop {
		keep, drop = drop, keep
	}
	ng := &Multigraph{N: g.N, Edges: make([]Edge, 0, len(g.Edges)-1)}
	for _, e := range g.Edges {
		if e.ID == id {
			continue
		}
		u, v := e.U, e.V
		if u == drop {
			u = keep
		}
		if v == drop {
			v = keep
		}
		ng.Edges = append(ng.Edges, Edge{ID: e.ID, U: u, V: v})
	}
	return ng
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
