package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// genGraph decodes a byte string into a small multigraph.
func genGraph(data []byte) *Multigraph {
	n := 2 + int(uint(len(data)))%6
	g := &Multigraph{N: n}
	for i := 0; i+1 < len(data); i += 2 {
		g.Edges = append(g.Edges, Edge{
			ID: i/2 + 1,
			U:  int(data[i]) % n,
			V:  int(data[i+1]) % n,
		})
	}
	return g
}

// Property: contracting an edge removes exactly that edge and never splits
// an edge-bearing component (the absorbed endpoint becomes isolated by
// design, so raw component counts may grow by one singleton).
func TestContractPreservesConnectivityProperty(t *testing.T) {
	edgeComponents := func(g *Multigraph) int {
		comps := refComponents(g)
		inComp := make([]int, g.N)
		for ci, nodes := range comps {
			for _, n := range nodes {
				inComp[n] = ci
			}
		}
		withEdges := map[int]bool{}
		for _, e := range g.Edges {
			withEdges[inComp[e.U]] = true
		}
		return len(withEdges)
	}
	f := func(data []byte) bool {
		g := genGraph(data)
		if len(g.Edges) == 0 {
			return true
		}
		before := edgeComponents(g)
		e := g.Edges[int(uint(len(data)))%len(g.Edges)]
		ng := g.ContractEdge(e.ID)
		if len(ng.Edges) != len(g.Edges)-1 {
			return false
		}
		return edgeComponents(ng) <= before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: removing a bridge increases the component count by exactly one;
// removing a non-bridge keeps it unchanged.
func TestBridgeDefinitionProperty(t *testing.T) {
	f := func(data []byte) bool {
		g := genGraph(data)
		isBridge := map[int]bool{}
		for _, b := range bridges(g) {
			isBridge[b.ID] = true
		}
		base := len(refComponents(g))
		for _, e := range g.Edges {
			after := len(refComponents(g.RemoveEdge(e.ID)))
			if isBridge[e.ID] {
				if after != base+1 {
					return false
				}
			} else if after != base {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: eccentricities are symmetric-consistent: the maximum
// eccentricity (diameter endpoint) is achieved by at least two nodes.
func TestEccentricityDiameterProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(8)
		g := &Multigraph{N: n}
		for i := 0; i < rng.Intn(2*n); i++ {
			g.Edges = append(g.Edges, Edge{ID: i + 1, U: rng.Intn(n), V: rng.Intn(n)})
		}
		ecc := eccentricities(g)
		max, count := 0, 0
		for _, e := range ecc {
			if e > max {
				max, count = e, 1
			} else if e == max {
				count++
			}
		}
		if max > 0 && count < 2 {
			t.Fatalf("diameter %d achieved by %d nodes: %v (edges %v)", max, count, ecc, g.Edges)
		}
	}
}

// Property: the kernel's components partition the edges. Every edge lands
// in exactly one group, in input order within it; no node is shared by two
// groups; groups ascend by smallest node.
func TestComponentsPartitionProperty(t *testing.T) {
	var s Scratch
	f := func(data []byte) bool {
		g := genGraph(data)
		groups := s.Components(g.Edges)
		if groups == nil {
			return len(refComponentsWithEdges(g)) < 2
		}
		owner := map[int]int{}
		pos := map[int]int{} // edge ID -> input index
		for i, e := range g.Edges {
			pos[e.ID] = i
		}
		total, prevMin := 0, -1
		for gi, es := range groups {
			lo, last := g.N, -1
			for _, e := range es {
				for _, v := range []int{e.U, e.V} {
					if o, ok := owner[v]; ok && o != gi {
						return false
					}
					owner[v] = gi
					lo = min(lo, v)
				}
				if pos[e.ID] <= last {
					return false
				}
				last = pos[e.ID]
			}
			if lo <= prevMin {
				return false
			}
			prevMin = lo
			total += len(es)
		}
		return total == len(g.Edges) && len(groups) == len(refComponentsWithEdges(g))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refComponentsWithEdges is refComponents without the edgeless nodes.
func refComponentsWithEdges(g *Multigraph) [][]int {
	endpoint := make([]bool, g.N)
	for _, e := range g.Edges {
		endpoint[e.U], endpoint[e.V] = true, true
	}
	var out [][]int
	for _, c := range refComponents(g) {
		if endpoint[c[0]] {
			out = append(out, c)
		}
	}
	return out
}
