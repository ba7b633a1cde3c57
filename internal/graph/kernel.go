package graph

import "slices"

// Scratch is reusable working memory for the subgraph kernels: connected
// components, bridges, eccentricity and degree. A kernel reads only the
// edges it is handed and numbers their endpoints 0..k-1 in order of first
// appearance, so a subgraph with k edges costs O(k) however many nodes its
// Multigraph admits. The buffers stay between calls: a warm Scratch
// allocates only what Components returns for the caller to keep.
//
// A Scratch is not safe for concurrent use; give each goroutine its own.
// The zero value is ready to use.
type Scratch struct {
	// Local numbering: stamp[v] == epoch marks node v as numbered by the
	// current call, as local[v]; nodes maps local numbers back.
	epoch uint32
	stamp []uint32
	local []int32
	nodes []int

	parent, rank []int32 // Components: union-find forest, component order
	roots        []int32
	fill         []int32 // Components' group sizes, Bridges' CSR cursors

	// Bridges builds a CSR adjacency and per-node degrees, which
	// Eccentricity and Degree read until the next kernel call.
	start     []int32 // by local node: its first half-edge; len k+1
	halves    []half
	out, in   []int32
	disc, low []int32
	frames    []frame
	bridges   []Edge
	ecc       []int32 // by local node: eccentricity, -1 until asked for
	dist      []int32 // BFS distances, -1 outside a search
	queue     []int32
}

// half is one direction of an undirected edge: the local node it leads to
// and the index of its edge in the kernel's input.
type half struct {
	to, edge int32
}

// frame is one node on Bridges' DFS stack.
type frame struct {
	node int32
	via  int32 // input index of the edge used to enter node; -1 at roots
	next int32 // next half-edge of node to explore
}

// resize returns buf with length n, reusing its array when it is large
// enough; the contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// number gives the endpoints of edges local numbers and returns how many
// there are.
func (s *Scratch) number(edges []Edge) int {
	hi := -1
	for _, e := range edges {
		hi = max(hi, e.U, e.V)
	}
	if hi >= len(s.stamp) {
		s.stamp = append(s.stamp, make([]uint32, hi+1-len(s.stamp))...)
		s.local = append(s.local, make([]int32, hi+1-len(s.local))...)
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: no stale stamp may equal the new epoch
		clear(s.stamp)
		s.epoch = 1
	}
	s.nodes = s.nodes[:0]
	for _, e := range edges {
		s.see(e.U)
		s.see(e.V)
	}
	return len(s.nodes)
}

func (s *Scratch) see(v int) {
	if s.stamp[v] != s.epoch {
		s.stamp[v] = s.epoch
		s.local[v] = int32(len(s.nodes))
		s.nodes = append(s.nodes, v)
	}
}

// id returns the local number of node v, which the last kernel call must
// have numbered.
func (s *Scratch) id(v int) int32 {
	if v < 0 || v >= len(s.stamp) || s.stamp[v] != s.epoch {
		panic("graph: node is not an endpoint of the last kernel call's edges")
	}
	return s.local[v]
}

// find returns the root of x's tree, halving the path as it goes.
func find(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// Components groups edges by connected component: components in order of
// their smallest node, edges in input order within each. It returns nil,
// and allocates nothing, when the edges form fewer than two components.
// The groups it does return are carved from one new slice that the caller
// owns.
func (s *Scratch) Components(edges []Edge) [][]Edge {
	k := s.number(edges)
	parent := resize(s.parent, k)
	s.parent = parent
	for i := range parent {
		parent[i] = int32(i)
	}
	comps := k
	for _, e := range edges {
		a, b := find(parent, s.local[e.U]), find(parent, s.local[e.V])
		if a == b {
			continue
		}
		// The root is always the smallest node of its tree.
		if s.nodes[b] < s.nodes[a] {
			a, b = b, a
		}
		parent[b] = a
		comps--
	}
	if comps < 2 {
		return nil
	}
	roots := s.roots[:0]
	for i := range parent {
		if find(parent, int32(i)) == int32(i) {
			roots = append(roots, int32(i))
		}
	}
	slices.SortFunc(roots, func(a, b int32) int { return s.nodes[a] - s.nodes[b] })
	s.roots = roots
	// rank maps a root to its component's position in roots.
	rank := resize(s.rank, k)
	s.rank = rank
	for c, r := range roots {
		rank[r] = int32(c)
	}
	groups := make([][]Edge, comps)
	counts := resize(s.fill, comps)
	s.fill = counts
	clear(counts)
	for _, e := range edges {
		counts[rank[find(parent, s.local[e.U])]]++
	}
	out := make([]Edge, len(edges))
	at := int32(0)
	for c, n := range counts {
		groups[c] = out[at : at : at+n]
		at += n
	}
	for _, e := range edges {
		c := rank[find(parent, s.local[e.U])]
		groups[c] = append(groups[c], e)
	}
	return groups
}

// Bridges returns the bridges among edges: the edges whose deletion
// increases the number of connected components. Self-loops and members of
// parallel-edge bundles are never bridges. The result is only valid until
// the next kernel call on s. The search is an iterative Tarjan low-link
// DFS over a CSR adjacency that tracks which edge entered each node, so
// parallel edges are handled correctly.
//
// Bridges leaves its adjacency and the edges' degrees behind for
// Eccentricity and Degree.
func (s *Scratch) Bridges(edges []Edge) []Edge {
	k := s.number(edges)
	start := resize(s.start, k+1)
	out, in := resize(s.out, k), resize(s.in, k)
	s.start, s.out, s.in = start, out, in
	clear(start)
	clear(out)
	clear(in)
	for _, e := range edges {
		u, v := s.local[e.U], s.local[e.V]
		start[u+1]++
		if u != v {
			start[v+1]++
		}
		out[u]++
		in[v]++
	}
	for i := 1; i <= k; i++ {
		start[i] += start[i-1]
	}
	halves := resize(s.halves, int(start[k]))
	fill := resize(s.fill, k)
	s.halves, s.fill = halves, fill
	copy(fill, start[:k])
	for i, e := range edges {
		u, v := s.local[e.U], s.local[e.V]
		halves[fill[u]] = half{to: v, edge: int32(i)}
		fill[u]++
		if u != v {
			halves[fill[v]] = half{to: u, edge: int32(i)}
			fill[v]++
		}
	}

	disc, low := resize(s.disc, k), resize(s.low, k)
	ecc, dist := resize(s.ecc, k), resize(s.dist, k)
	s.disc, s.low, s.ecc, s.dist = disc, low, ecc, dist
	for i := range disc {
		disc[i], ecc[i], dist[i] = -1, -1, -1
	}
	bridges := s.bridges[:0]
	frames := s.frames[:0]
	timer := int32(0)
	for root := int32(0); root < int32(k); root++ {
		if disc[root] != -1 {
			continue
		}
		disc[root], low[root] = timer, timer
		timer++
		frames = append(frames[:0], frame{node: root, via: -1, next: start[root]})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			u := f.node
			if f.next < start[u+1] {
				h := halves[f.next]
				f.next++
				if h.edge == f.via || h.to == u {
					continue // not back along the entering edge; self-loops add nothing
				}
				if disc[h.to] == -1 {
					disc[h.to], low[h.to] = timer, timer
					timer++
					frames = append(frames, frame{node: h.to, via: h.edge, next: start[h.to]})
				} else if disc[h.to] < low[u] {
					low[u] = disc[h.to]
				}
				continue
			}
			// Done with u: propagate its low-link to the parent.
			via := f.via
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].node
				low[p] = min(low[p], low[u])
				if low[u] > disc[p] {
					bridges = append(bridges, edges[via])
				}
			}
		}
	}
	s.bridges, s.frames = bridges, frames
	return bridges
}

// Eccentricity returns node v's eccentricity in the graph of the last
// Bridges call on s: its greatest BFS distance to any node of its
// component. v must be an endpoint of that call's edges. Each node's
// breadth-first search runs at most once per Bridges call.
func (s *Scratch) Eccentricity(v int) int {
	src := s.id(v)
	if e := s.ecc[src]; e >= 0 {
		return int(e)
	}
	dist := s.dist
	queue := append(s.queue[:0], src)
	dist[src] = 0
	far := int32(0)
	for i := 0; i < len(queue); i++ {
		u := queue[i]
		for _, h := range s.halves[s.start[u]:s.start[u+1]] {
			if dist[h.to] == -1 {
				dist[h.to] = dist[u] + 1
				far = max(far, dist[h.to])
				queue = append(queue, h.to)
			}
		}
	}
	for _, u := range queue {
		dist[u] = -1
	}
	s.queue = queue
	s.ecc[src] = far
	return int(far)
}

// Degree returns node v's out-degree and in-degree among the edges of the
// last Bridges call on s, taking each edge as directed from U to V. v must
// be an endpoint of those edges.
func (s *Scratch) Degree(v int) (out, in int) {
	l := s.id(v)
	return int(s.out[l]), int(s.in[l])
}
