package graph_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/graph"
	"optinline/internal/search"
	"optinline/internal/workload"
)

// refEdgeComponents is the search's component split on the whole-graph
// reference: edge-bearing components in order of smallest node, edges in
// input order.
func refEdgeComponents(mg *graph.Multigraph) [][]graph.Edge {
	comps := graph.RefComponents(mg)
	inComp := make([]int, mg.N)
	for ci, nodes := range comps {
		for _, n := range nodes {
			inComp[n] = ci
		}
	}
	byComp := make(map[int][]graph.Edge)
	for _, e := range mg.Edges {
		byComp[inComp[e.U]] = append(byComp[inComp[e.U]], e)
	}
	cis := make([]int, 0, len(byComp))
	for ci := range byComp {
		cis = append(cis, ci)
	}
	sort.Ints(cis)
	out := make([][]graph.Edge, 0, len(cis))
	for _, ci := range cis {
		out = append(out, byComp[ci])
	}
	return out
}

// refPartitionEdge is the paper's partition-edge heuristic on the
// whole-graph references: every node's eccentricity and degree.
func refPartitionEdge(mg *graph.Multigraph) graph.Edge {
	if bridges := graph.RefBridges(mg); len(bridges) > 0 {
		ecc := graph.RefEccentricities(mg)
		minEcc := func(e graph.Edge) int { return min(ecc[e.U], ecc[e.V]) }
		best := bridges[0]
		for _, b := range bridges[1:] {
			if be, bb := minEcc(b), minEcc(best); be < bb || (be == bb && b.ID < best.ID) {
				best = b
			}
		}
		return best
	}
	out := make([]int, mg.N)
	in := make([]int, mg.N)
	for _, e := range mg.Edges {
		out[e.U]++
		in[e.V]++
	}
	u := 0
	for n := range out {
		if out[n] > out[u] {
			u = n
		}
	}
	var best *graph.Edge
	for i := range mg.Edges {
		e := &mg.Edges[i]
		if e.U == u && (best == nil || in[e.V] < in[best.V] || (in[e.V] == in[best.V] && e.ID < best.ID)) {
			best = e
		}
	}
	return *best
}

// checkKernels requires the kernels to agree with the references on mg:
// the same component split (order and edge order included), the same
// bridge set, the same eccentricity at every endpoint, and the same
// partition edge.
func checkKernels(t *testing.T, name string, s *graph.Scratch, mg *graph.Multigraph) {
	t.Helper()
	want := refEdgeComponents(mg)
	got := s.Components(mg.Edges)
	if len(want) < 2 {
		if got != nil {
			t.Fatalf("%s: edges %v: kernel split %v, reference has %d component(s)", name, mg.Edges, got, len(want))
		}
	} else if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: edges %v: components %v, want %v", name, mg.Edges, got, want)
	}

	wantBridges := map[int]bool{}
	for _, b := range graph.RefBridges(mg) {
		wantBridges[b.ID] = true
	}
	gotBridges := s.Bridges(mg.Edges)
	if len(gotBridges) != len(wantBridges) {
		t.Fatalf("%s: edges %v: bridges %v, want IDs %v", name, mg.Edges, gotBridges, wantBridges)
	}
	for _, b := range gotBridges {
		if !wantBridges[b.ID] {
			t.Fatalf("%s: edges %v: %v is not a bridge", name, mg.Edges, b)
		}
	}
	ecc := graph.RefEccentricities(mg)
	for _, e := range mg.Edges {
		for _, v := range []int{e.U, e.V} {
			if got := s.Eccentricity(v); got != ecc[v] {
				t.Fatalf("%s: edges %v: eccentricity of %d is %d, want %d", name, mg.Edges, v, got, ecc[v])
			}
		}
	}

	if len(mg.Edges) > 0 {
		if got, want := search.SelectPartitionEdge(mg), refPartitionEdge(mg); got != want {
			t.Fatalf("%s: edges %v: partition edge %v, want %v", name, mg.Edges, got, want)
		}
	}
}

// TestKernelsMatchReference runs the kernels against the whole-graph
// references on random multigraphs with self-loops, parallel edges,
// isolated nodes and sparse edge IDs, reusing one scratch throughout so
// that state left by a larger graph would show on a smaller one.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var s graph.Scratch
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(14)
		mg := &graph.Multigraph{N: n}
		id := rng.Intn(5)
		for i, m := 0, rng.Intn(3*n); i < m; i++ {
			id += 1 + rng.Intn(40)
			u := rng.Intn(n)
			v := u
			switch r := rng.Intn(10); {
			case r == 0 && len(mg.Edges) > 0: // parallel to an earlier edge
				p := mg.Edges[rng.Intn(len(mg.Edges))]
				u, v = p.V, p.U
			case r > 1: // r == 1 keeps the self-loop
				v = rng.Intn(n)
			}
			mg.Edges = append(mg.Edges, graph.Edge{ID: id, U: u, V: v})
		}
		rng.Shuffle(len(mg.Edges), func(i, j int) { mg.Edges[i], mg.Edges[j] = mg.Edges[j], mg.Edges[i] })
		checkKernels(t, fmt.Sprintf("trial %d", trial), &s, mg)
	}
}

// TestKernelsMatchReferenceOnSearchCorpus runs the same check at every
// distinct subgraph the search visits, over every file of a quarter-scale
// SPEC-like corpus whose space fits 2^14 (the search cap perfbench uses).
func TestKernelsMatchReferenceOnSearchCorpus(t *testing.T) {
	const spaceCap = 1 << 14
	var s graph.Scratch
	files, visited := 0, 0
	for _, p := range workload.SPECProfiles() {
		p.Files = max(1, p.Files/4)
		p.TotalEdges = max(1, p.TotalEdges/4)
		for _, f := range workload.Generate(p).Files {
			g := callgraph.Build(f.Module)
			if len(g.Edges) == 0 {
				continue
			}
			if _, over := search.RecursiveSpaceSize(g, spaceCap); over {
				continue
			}
			files++
			seen := map[string]bool{}
			var walk func(mg *graph.Multigraph)
			walk = func(mg *graph.Multigraph) {
				if len(mg.Edges) == 0 || seen[edgeKey(mg)] {
					return
				}
				seen[edgeKey(mg)] = true
				visited++
				checkKernels(t, f.Name, &s, mg)
				if groups := refEdgeComponents(mg); len(groups) > 1 {
					for _, es := range groups {
						walk(&graph.Multigraph{N: mg.N, Edges: es})
					}
					return
				}
				e := refPartitionEdge(mg)
				walk(mg.RemoveEdge(e.ID))
				walk(mg.ContractEdge(e.ID))
			}
			walk(g.Undirected())
		}
	}
	if files < 20 {
		t.Fatalf("only %d searchable files", files)
	}
	t.Logf("%d files, %d distinct subgraphs", files, visited)
}

func edgeKey(mg *graph.Multigraph) string {
	var buf []byte
	for _, e := range mg.Edges {
		buf = binary.AppendUvarint(buf, uint64(e.ID))
		buf = binary.AppendUvarint(buf, uint64(e.U))
		buf = binary.AppendUvarint(buf, uint64(e.V))
	}
	return string(buf)
}
