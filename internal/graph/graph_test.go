package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

func edges(pairs ...[2]int) []Edge {
	es := make([]Edge, len(pairs))
	for i, p := range pairs {
		es[i] = Edge{ID: i + 1, U: p[0], V: p[1]}
	}
	return es
}

func TestConnectedComponents(t *testing.T) {
	// {0,1,2} via path, {3,4}, {5} isolated: the reference numbers every
	// node, the kernel groups only edges.
	g := &Multigraph{N: 6, Edges: edges([2]int{3, 4}, [2]int{1, 2}, [2]int{0, 1})}
	if comps := refComponents(g); len(comps) != 3 {
		t.Fatalf("reference: got %d components, want 3", len(comps))
	}
	var s Scratch
	groups := s.Components(g.Edges)
	if got := fmt.Sprint(groups); got != "[[{2 1 2} {3 0 1}] [{1 3 4}]]" {
		t.Fatalf("components %s: want {0,1,2} first, edges in input order", got)
	}
	if s.Components(g.Edges[1:]) != nil {
		t.Fatal("one component must not split")
	}
}

// bridges runs the bridge kernel on a fresh scratch.
func bridges(g *Multigraph) []Edge {
	var s Scratch
	return s.Bridges(g.Edges)
}

func TestBridgesPath(t *testing.T) {
	// A path: every edge is a bridge.
	g := &Multigraph{N: 4, Edges: edges([2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3})}
	if got := len(bridges(g)); got != 3 {
		t.Fatalf("path should have 3 bridges, got %d", got)
	}
}

func TestBridgesCycle(t *testing.T) {
	g := &Multigraph{N: 3, Edges: edges([2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0})}
	if got := len(bridges(g)); got != 0 {
		t.Fatalf("cycle should have 0 bridges, got %d", got)
	}
}

func TestBridgesParallelEdges(t *testing.T) {
	// Two parallel edges between 0 and 1: neither is a bridge.
	g := &Multigraph{N: 2, Edges: edges([2]int{0, 1}, [2]int{0, 1})}
	if got := len(bridges(g)); got != 0 {
		t.Fatalf("parallel edges are not bridges, got %d", got)
	}
}

func TestBridgesSelfLoop(t *testing.T) {
	g := &Multigraph{N: 2, Edges: edges([2]int{0, 0}, [2]int{0, 1})}
	br := bridges(g)
	if len(br) != 1 || br[0].U == br[0].V {
		t.Fatalf("only the 0-1 edge is a bridge, got %v", br)
	}
}

func TestBridgesBarbell(t *testing.T) {
	// Two triangles joined by one edge: exactly that edge is a bridge.
	g := &Multigraph{N: 6, Edges: edges(
		[2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0},
		[2]int{3, 4}, [2]int{4, 5}, [2]int{5, 3},
		[2]int{2, 3},
	)}
	br := bridges(g)
	if len(br) != 1 || br[0].ID != 7 {
		t.Fatalf("want bridge id 7, got %v", br)
	}
}

// naiveBridges implements the definition directly: remove each edge and see
// whether the component count grows.
func naiveBridges(g *Multigraph) map[int]bool {
	base := len(refComponents(g))
	out := make(map[int]bool)
	for _, e := range g.Edges {
		if len(refComponents(g.RemoveEdge(e.ID))) > base {
			out[e.ID] = true
		}
	}
	return out
}

func TestBridgesMatchNaiveOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(10)
		m := rng.Intn(2 * n)
		g := &Multigraph{N: n}
		for i := 0; i < m; i++ {
			g.Edges = append(g.Edges, Edge{ID: i + 1, U: rng.Intn(n), V: rng.Intn(n)})
		}
		want := naiveBridges(g)
		got := make(map[int]bool)
		for _, e := range bridges(g) {
			got[e.ID] = true
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: edges %v: fast=%v naive=%v", trial, g.Edges, got, want)
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("trial %d: missing bridge %d (edges %v)", trial, id, g.Edges)
			}
		}
	}
}

// eccentricities returns every node's eccentricity from the kernel;
// isolated nodes read 0, as in the reference.
func eccentricities(g *Multigraph) []int {
	var s Scratch
	s.Bridges(g.Edges)
	ecc := make([]int, g.N)
	for _, e := range g.Edges {
		ecc[e.U], ecc[e.V] = s.Eccentricity(e.U), s.Eccentricity(e.V)
	}
	return ecc
}

func TestEccentricities(t *testing.T) {
	// Path 0-1-2-3: ecc = 3,2,2,3.
	g := &Multigraph{N: 4, Edges: edges([2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3})}
	ecc := eccentricities(g)
	want := []int{3, 2, 2, 3}
	for i := range want {
		if ecc[i] != want[i] {
			t.Fatalf("ecc=%v want %v", ecc, want)
		}
	}
}

func TestEccentricityPerComponent(t *testing.T) {
	// Disconnected: eccentricity only counts the own component.
	g := &Multigraph{N: 4, Edges: edges([2]int{0, 1}, [2]int{2, 3})}
	ecc := eccentricities(g)
	for i, e := range ecc {
		if e != 1 {
			t.Fatalf("node %d: ecc=%d want 1", i, e)
		}
	}
}

func TestRemoveEdge(t *testing.T) {
	g := &Multigraph{N: 3, Edges: edges([2]int{0, 1}, [2]int{1, 2})}
	ng := g.RemoveEdge(1)
	if len(ng.Edges) != 1 || ng.Edges[0].ID != 2 {
		t.Fatalf("RemoveEdge: %v", ng.Edges)
	}
	if len(g.Edges) != 2 {
		t.Fatal("RemoveEdge mutated the original")
	}
}

func TestContractEdge(t *testing.T) {
	// Contract 0-1 in a triangle: remaining edges 1-2 and 2-0 both connect
	// the merged node with 2.
	g := &Multigraph{N: 3, Edges: edges([2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0})}
	ng := g.ContractEdge(1)
	if len(ng.Edges) != 2 {
		t.Fatalf("contract: %v", ng.Edges)
	}
	for _, e := range ng.Edges {
		if !(e.U == 0 && e.V == 2 || e.U == 2 && e.V == 0) {
			t.Fatalf("edge %v should connect 0 and 2", e)
		}
	}
	// Contracting a parallel pair produces a self-loop.
	g2 := &Multigraph{N: 2, Edges: edges([2]int{0, 1}, [2]int{0, 1})}
	ng2 := g2.ContractEdge(1)
	if len(ng2.Edges) != 1 || ng2.Edges[0].U != ng2.Edges[0].V {
		t.Fatalf("expected self-loop, got %v", ng2.Edges)
	}
}

func TestContractMissingEdgeIsCopy(t *testing.T) {
	g := &Multigraph{N: 2, Edges: edges([2]int{0, 1})}
	ng := g.ContractEdge(99)
	if len(ng.Edges) != 1 {
		t.Fatal("missing-edge contraction should copy")
	}
}

func TestDegrees(t *testing.T) {
	// A self-loop counts once each way.
	g := &Multigraph{N: 3, Edges: edges([2]int{0, 1}, [2]int{0, 2}, [2]int{0, 0}, [2]int{2, 1})}
	var s Scratch
	s.Bridges(g.Edges)
	want := [][2]int{{3, 1}, {0, 2}, {1, 1}}
	for v, w := range want {
		if out, in := s.Degree(v); out != w[0] || in != w[1] {
			t.Fatalf("node %d: degree (%d, %d), want %v", v, out, in, w)
		}
	}
}
