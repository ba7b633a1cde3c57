package callgraph

import (
	"strings"
	"testing"

	"optinline/internal/graph"
	"optinline/internal/ir"
)

const src = `
func @leaf(%x) {
entry:
  %two = const 2
  %r = mul %x, %two
  ret %r
}

func @mid(%x) {
entry:
  %a = call @leaf(%x) !site 1
  %c = const 5
  %b = call @leaf(%c) !site 2
  %s = add %a, %b
  ret %s
}

func @rec(%n) {
entry:
  %zero = const 0
  %c = le %n, %zero
  condbr %c, base, more
base:
  ret %zero
more:
  %one = const 1
  %m = sub %n, %one
  %r = call @rec(%m) !site 3
  %s = add %r, %n
  ret %s
}

export func @main(%n) {
entry:
  %a = call @mid(%n) !site 4
  %b = call @rec(%n) !site 5
  %x = call @external_thing(%n)
  %s = add %a, %b
  %t = add %s, %x
  ret %t
}
`

func build(t *testing.T) (*ir.Module, *Graph) {
	t.Helper()
	m, err := ir.Parse("cg", src)
	if err != nil {
		t.Fatal(err)
	}
	return m, Build(m)
}

func TestBuildFindsCandidates(t *testing.T) {
	_, g := build(t)
	if len(g.Edges) != 5 {
		t.Fatalf("got %d candidate edges, want 5", len(g.Edges))
	}
	if g.ExternalCalls != 1 {
		t.Fatalf("external calls = %d, want 1", g.ExternalCalls)
	}
	sites := g.Sites()
	for i, want := range []int{1, 2, 3, 4, 5} {
		if sites[i] != want {
			t.Fatalf("sites %v", sites)
		}
	}
}

func TestEdgeAttributes(t *testing.T) {
	_, g := build(t)
	e2 := g.Edge(2)
	if e2 == nil || e2.ConstArgs != 1 || e2.NumArgs != 1 {
		t.Fatalf("edge 2: %+v", e2)
	}
	e1 := g.Edge(1)
	if e1.ConstArgs != 0 || e1.Caller != "mid" || e1.Callee != "leaf" {
		t.Fatalf("edge 1: %+v", e1)
	}
	if g.Edge(99) != nil {
		t.Fatal("nonexistent edge should be nil")
	}
}

func TestRecursiveMarking(t *testing.T) {
	_, g := build(t)
	if !g.Edge(3).Recursive {
		t.Fatal("self-call must be recursive")
	}
	for _, s := range []int{1, 2, 4, 5} {
		if g.Edge(s).Recursive {
			t.Fatalf("edge %d wrongly recursive", s)
		}
	}
}

func TestMutualRecursionMarking(t *testing.T) {
	msrc := `
func @a(%x) {
entry:
  %r = call @b(%x) !site 1
  ret %r
}
func @b(%x) {
entry:
  %r = call @a(%x) !site 2
  ret %r
}
export func @main(%x) {
entry:
  %r = call @a(%x) !site 3
  ret %r
}
`
	m := ir.MustParse("mut", msrc)
	g := Build(m)
	if !g.Edge(1).Recursive || !g.Edge(2).Recursive {
		t.Fatal("mutual recursion not detected")
	}
	if g.Edge(3).Recursive {
		t.Fatal("entry edge into an SCC is not itself recursive")
	}
}

func TestDegrees(t *testing.T) {
	_, g := build(t)
	if g.OutDegree("mid") != 2 || g.InDegree("leaf") != 2 {
		t.Fatalf("degrees: out(mid)=%d in(leaf)=%d", g.OutDegree("mid"), g.InDegree("leaf"))
	}
	if g.OutDegree("leaf") != 0 || g.InDegree("main") != 0 {
		t.Fatal("leaf/main degrees wrong")
	}
}

func TestUndirectedView(t *testing.T) {
	_, g := build(t)
	mg := g.Undirected()
	if mg.N != len(g.Nodes) || len(mg.Edges) != 5 {
		t.Fatalf("undirected view: N=%d edges=%d", mg.N, len(mg.Edges))
	}
	// main-mid-leaf-rec all connect: one component (rec self-loop included).
	var s graph.Scratch
	if comps := s.Components(mg.Edges); comps != nil {
		t.Fatalf("components = %d, want 1", len(comps))
	}
}

func TestConfigBasics(t *testing.T) {
	c := NewConfig()
	if c.Inline(1) || c.InlineCount() != 0 || c.Key() != "" {
		t.Fatal("clean slate not clean")
	}
	c.Set(3, true).Set(1, true)
	if !c.Inline(3) || c.InlineCount() != 2 || c.Key() != "1,3" {
		t.Fatalf("config: %v key=%q", c, c.Key())
	}
	c.Set(3, false)
	if c.Inline(3) || c.Key() != "1" {
		t.Fatal("unset failed")
	}
	d := c.Clone().Set(9, true)
	if c.Inline(9) {
		t.Fatal("clone shares storage")
	}
	if !c.Equal(NewConfig().Set(1, true)) || c.Equal(d) {
		t.Fatal("Equal wrong")
	}
}

func TestConfigMerge(t *testing.T) {
	a := NewConfig().Set(1, true)
	b := NewConfig().Set(2, true)
	a.Merge(b)
	if a.Key() != "1,2" {
		t.Fatalf("merge key %q", a.Key())
	}
}

func TestAgreementMatrix(t *testing.T) {
	sites := []int{1, 2, 3, 4}
	a := NewConfig().Set(1, true).Set(2, true) // inline 1,2
	b := NewConfig().Set(2, true).Set(3, true) // inline 2,3
	m := Agreement(sites, a, b)
	// a=no,b=no: {4}; a=no,b=in: {3}; a=in,b=no: {1}; a=in,b=in: {2}
	if m[0][0] != 1 || m[0][1] != 1 || m[1][0] != 1 || m[1][1] != 1 {
		t.Fatalf("matrix %v", m)
	}
}

func TestCalleesAllInline(t *testing.T) {
	_, g := build(t)
	cfg := NewConfig().Set(1, true).Set(2, true) // both edges into leaf
	all := g.CalleesAllInline(cfg)
	if !all["leaf"] {
		t.Fatal("leaf should be fully inlined")
	}
	if all["mid"] || all["rec"] {
		t.Fatal("mid/rec have no-inline callers")
	}
	cfg.Set(2, false)
	if g.CalleesAllInline(cfg)["leaf"] {
		t.Fatal("leaf has a remaining no-inline caller")
	}
}

func TestDOT(t *testing.T) {
	_, g := build(t)
	cfg := NewConfig().Set(1, true)
	d := g.DOT("test", cfg)
	if !strings.Contains(d, `"mid" -> "leaf" [style=solid, label="s1"]`) {
		t.Fatalf("DOT missing solid edge:\n%s", d)
	}
	if !strings.Contains(d, "style=dashed") {
		t.Fatal("DOT missing dashed edges")
	}
	sbs := g.SideBySideDOT("t", "optimal", cfg, "llvm", NewConfig())
	if !strings.Contains(sbs, "cluster_0") || !strings.Contains(sbs, "cluster_1") {
		t.Fatal("side-by-side DOT missing clusters")
	}
}

func TestBuildPanicsOnMissingSite(t *testing.T) {
	m := ir.NewModule("bad")
	b := ir.NewFunction("f", 0, true)
	c := b.Const(1)
	r := b.Call("g", c) // no site assigned
	b.Ret(r)
	m.AddFunc(b.Fn)
	gb := ir.NewFunction("g", 1, false)
	gb.Ret(gb.Param(0))
	m.AddFunc(gb.Fn)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing site ID")
		}
	}()
	Build(m)
}
