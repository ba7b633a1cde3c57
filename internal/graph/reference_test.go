package graph

// The whole-graph kernels the search used before Scratch, kept as the
// references the kernels are tested against. Each numbers all N nodes of
// the graph, so it costs O(N) or more per call however few edges remain.

// refHalf is one direction of an undirected edge in refAdjacency.
type refHalf struct {
	to int
	id int
}

func refAdjacency(g *Multigraph) [][]refHalf {
	adj := make([][]refHalf, g.N)
	for _, e := range g.Edges {
		adj[e.U] = append(adj[e.U], refHalf{to: e.V, id: e.ID})
		if e.U != e.V {
			adj[e.V] = append(adj[e.V], refHalf{to: e.U, id: e.ID})
		}
	}
	return adj
}

// refComponents returns the node sets of the connected components,
// ordered by smallest contained node. Isolated nodes form singleton
// components.
func refComponents(g *Multigraph) [][]int {
	adj := refAdjacency(g)
	comp := make([]int, g.N)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int
	for start := 0; start < g.N; start++ {
		if comp[start] != -1 {
			continue
		}
		id := len(comps)
		var nodes []int
		stack := []int{start}
		comp[start] = id
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			nodes = append(nodes, u)
			for _, h := range adj[u] {
				if comp[h.to] == -1 {
					comp[h.to] = id
					stack = append(stack, h.to)
				}
			}
		}
		comps = append(comps, nodes)
	}
	return comps
}

// refBridges returns the bridge edges by an iterative Tarjan low-link DFS
// over all N nodes that tracks edge identities.
func refBridges(g *Multigraph) []Edge {
	adj := refAdjacency(g)
	disc := make([]int, g.N)
	low := make([]int, g.N)
	for i := range disc {
		disc[i] = -1
	}
	timer := 0
	var bridges []Edge
	edgeByID := make(map[int]Edge, len(g.Edges))
	for _, e := range g.Edges {
		edgeByID[e.ID] = e
	}

	type frame struct {
		node   int
		viaID  int // edge used to enter node; -1 at roots
		nextIx int // next adjacency index to explore
	}
	for root := 0; root < g.N; root++ {
		if disc[root] != -1 {
			continue
		}
		stack := []frame{{node: root, viaID: -1}}
		disc[root], low[root] = timer, timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			u := f.node
			if f.nextIx < len(adj[u]) {
				h := adj[u][f.nextIx]
				f.nextIx++
				if h.id == f.viaID {
					continue // do not return along the entering edge
				}
				if h.to == u {
					continue // self-loop contributes nothing
				}
				if disc[h.to] == -1 {
					disc[h.to], low[h.to] = timer, timer
					timer++
					stack = append(stack, frame{node: h.to, viaID: h.id})
				} else if disc[h.to] < low[u] {
					low[u] = disc[h.to]
				}
				continue
			}
			// Done with u: propagate low-link to parent; detect bridge.
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				p := stack[len(stack)-1].node
				if low[u] < low[p] {
					low[p] = low[u]
				}
				if low[u] > disc[p] {
					bridges = append(bridges, edgeByID[f.viaID])
				}
			}
		}
	}
	return bridges
}

// refEccentricities returns, for every node, its eccentricity within its
// own connected component: the maximum BFS distance to any reachable node.
func refEccentricities(g *Multigraph) []int {
	adj := refAdjacency(g)
	ecc := make([]int, g.N)
	dist := make([]int, g.N)
	for s := 0; s < g.N; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue := []int{s}
		max := 0
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, h := range adj[u] {
				if dist[h.to] == -1 {
					dist[h.to] = dist[u] + 1
					if dist[h.to] > max {
						max = dist[h.to]
					}
					queue = append(queue, h.to)
				}
			}
		}
		ecc[s] = max
	}
	return ecc
}
