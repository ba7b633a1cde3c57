package search

import (
	"math/rand"
	"testing"

	"optinline/internal/codegen"
	"optinline/internal/compile"
)

func TestSelectorsAgreeOnCount(t *testing.T) {
	// Any selector explores a complete space: its count must be at least 2
	// for one edge and all selectors must agree on a single-edge graph.
	g := pathGraph(1)
	a, _ := countSpace(g, 0, Selector(SelectFirstEdge).scratchless())
	b, _ := countSpace(g, 0, Selector(SelectLowestID).scratchless())
	c, _ := countSpace(g, 0, selectPartitionEdge)
	if a != 2 || b != 2 || c != 2 {
		t.Fatalf("single edge counts: %d %d %d", a, b, c)
	}
}

func TestPaperSelectorBeatsBaselineOnPaths(t *testing.T) {
	// On a long path, the central-bridge heuristic splits the space while
	// first-edge chews one edge at a time.
	g := pathGraph(12)
	paper, _ := countSpace(g, 0, selectPartitionEdge)
	naiveSel, capped := countSpace(g, 1<<20, Selector(SelectFirstEdge).scratchless())
	if capped {
		t.Fatal("unexpected cap")
	}
	if paper >= naiveSel {
		t.Fatalf("paper selector (%d) should beat first-edge (%d) on P12", paper, naiveSel)
	}
}

func TestAblationAcrossRandomModules(t *testing.T) {
	// Aggregate over random call graphs: the paper's selector should not
	// lose to the structure-blind baseline overall.
	rng := rand.New(rand.NewSource(77))
	var paperTotal, baseTotal uint64
	for trial := 0; trial < 20; trial++ {
		m := randomModule(rng)
		c := compile.New(m, codegen.TargetX86)
		g := c.Graph()
		if len(g.Edges) < 3 || len(g.Edges) > 14 {
			continue
		}
		p, c1 := RecursiveSpaceSize(g, 1<<22)
		b, c2 := SpaceSizeWith(g, 1<<22, SelectFirstEdge)
		if c1 || c2 {
			continue
		}
		paperTotal += p
		baseTotal += b
	}
	if paperTotal == 0 {
		t.Skip("no eligible graphs")
	}
	// The heuristic's advantage is structural: it wins by orders of
	// magnitude on bridge-rich graphs (see the path test above) and pays a
	// small combine overhead on dense ones. Overall it must stay within a
	// few percent of the structure-blind baseline even on unfavourable
	// random graphs.
	if float64(paperTotal) > 1.10*float64(baseTotal) {
		t.Fatalf("paper selector explored far more overall: %d vs %d", paperTotal, baseTotal)
	}
}
