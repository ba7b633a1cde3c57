package inline_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/heuristic"
	"optinline/internal/inline"
	"optinline/internal/interp"
	"optinline/internal/ir"
	"optinline/internal/lang"
	"optinline/internal/opt"
	"optinline/internal/search"
	"optinline/internal/workload"
)

// TestArenaExpansionMatchesReference compiles every closure the optimal
// search compiles twice: the way the compile engine does, cloning only the
// members Apply writes into one reused arena, expanding without block
// names and optimizing with arena-grown merges; and with fresh clones of
// every member through the reference expansion. Both bodies must have the
// same encoded size and cycle cost, and be the same body with blocks
// named by index. Whole-module Apply, which names blocks, must print every
// module byte for byte as the reference does under the -Os labels and
// under full inlining.
//
// The closures are those of every inlining-tree node's configuration (and
// every components node's combined one) for the functions its new labels
// dirty, as the search prices them, over random modules, 30 generated MinC
// programs and every file of a quarter-scale SPEC-like corpus whose space
// fits 2^14. In -short mode and under the race detector it keeps every
// third program and every fourth corpus file.
func TestArenaExpansionMatchesReference(t *testing.T) {
	var mods []*ir.Module
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		mods = append(mods, inline.RandomModule(rng, trial))
	}
	subset := testing.Short() || inline.RaceEnabled
	for seed := int64(1); seed <= 30; seed++ {
		if subset && seed%3 != 1 {
			continue
		}
		m, err := lang.Compile("gen", lang.GenerateSource(seed, lang.GenOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, m)
	}
	corpus := 0
	for _, p := range workload.SPECProfiles() {
		p.Files = max(1, p.Files/4)
		p.TotalEdges = max(1, p.TotalEdges/4)
		for _, f := range workload.Generate(p).Files {
			if _, over := search.RecursiveSpaceSize(callgraph.Build(f.Module), 1<<14); over {
				continue
			}
			if corpus++; subset && corpus%4 != 1 {
				continue
			}
			mods = append(mods, f.Module)
		}
	}
	var a ir.Arena
	closures := 0
	for i, m := range mods {
		c := compile.New(m, codegen.TargetX86)
		base, g := c.Module(), c.Graph()
		for _, cfg := range []*callgraph.Config{heuristic.OsConfig(base, g), callgraph.NewConfigOf(g.Sites())} {
			got, want := base.Clone(), base.Clone()
			if err := inline.Apply(got, cfg, inline.Options{}); err != nil {
				t.Fatal(err)
			}
			if err := inline.RefApply(want, cfg); err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Fatalf("module %d (%s) cfg %v: whole-module Apply differs from the reference\ngot:\n%s\nwant:\n%s", i, m.Name, cfg, got, want)
			}
		}
		cl := newClosures(base, g)
		tree, err := search.BuildTree(g, 1<<17)
		if err != nil {
			t.Fatalf("module %d (%s): %v", i, m.Name, err)
		}
		var walk func(n *search.TreeNode)
		walk = func(n *search.TreeNode) {
			switch n.Kind {
			case search.BinaryNode:
				walk(n.NotInlined)
				cl.visit(n.Inlined.Decisions, []int{n.Edge})
				walk(n.Inlined)
			case search.ComponentsNode:
				combined := n.Decisions.Clone()
				for _, ch := range n.Children {
					walk(ch)
					sub, _ := ch.Evaluate(c)
					combined.Merge(sub)
				}
				cl.visit(combined, combined.DiffSites(n.Decisions))
			}
		}
		cl.visit(tree.Decisions, nil)
		walk(tree)
		for _, cc := range cl.cases {
			arena, ref := cc.compile(&a, true), cc.compile(nil, false)
			if err := sameBody(arena, ref); err != nil {
				t.Fatalf("module %d (%s), closure of %s under %v: %v\narena:\n%s\nreference:\n%s",
					i, m.Name, cc.fn, cc.cfg, err, byIndex(arena), byIndex(ref))
			}
			if size, want := codegen.FunctionSize(arena, codegen.TargetX86), codegen.FunctionSize(ref, codegen.TargetX86); size != want {
				t.Fatalf("module %d (%s), closure of %s under %v: %d bytes, reference %d", i, m.Name, cc.fn, cc.cfg, size, want)
			}
			if cost, want := cc.cost(arena), cc.cost(ref); cost != want {
				t.Fatalf("module %d (%s), closure of %s under %v: %d cycles, reference %d", i, m.Name, cc.fn, cc.cfg, cost, want)
			}
			a.Release()
		}
		closures += len(cl.cases)
	}
	if closures < 1000 {
		t.Fatalf("only %d closures", closures)
	}
	t.Logf("%d modules, %d distinct closures", len(mods), closures)
}

// closures collects the distinct closure compiles of one module, the way
// the compile engine forms them (compile/memo.go): a function's inline
// closure under cfg is the smallest set containing it that holds the
// callee of every inline-labeled candidate site of a member, in module
// order.
type closures struct {
	base    *ir.Module
	owner   map[int]string   // candidate site -> caller
	callee  map[int]string   // candidate site -> callee
	sites   map[string][]int // function -> candidate sites it owns
	callers map[string][]string
	seen    map[string]bool
	cases   []*closureCase
}

func newClosures(base *ir.Module, g *callgraph.Graph) *closures {
	cl := &closures{base: base, owner: map[int]string{}, callee: map[int]string{},
		sites: map[string][]int{}, callers: map[string][]string{}, seen: map[string]bool{}}
	for _, e := range g.Edges {
		cl.owner[e.Site], cl.callee[e.Site] = e.Caller, e.Callee
		cl.sites[e.Caller] = append(cl.sites[e.Caller], e.Site)
		cl.callers[e.Callee] = append(cl.callers[e.Callee], e.Caller)
	}
	return cl
}

// visit records the closures a configuration's pricing compiles: of every
// function for the clean slate (nil toggles), else of the functions the
// toggled sites dirty — their owners' ancestors and their callees.
func (cl *closures) visit(cfg *callgraph.Config, toggles []int) {
	dirty := map[string]bool{}
	if toggles == nil {
		for _, f := range cl.base.Funcs {
			dirty[f.Name] = true
		}
	}
	for _, s := range toggles {
		dirty[cl.callee[s]] = true
		for stack := []string{cl.owner[s]}; len(stack) > 0; {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !dirty[f] {
				dirty[f] = true
				stack = append(stack, cl.callers[f]...)
			}
		}
	}
	for _, f := range cl.base.Funcs {
		if !dirty[f.Name] {
			continue
		}
		members := map[string]bool{f.Name: true}
		for queue := []string{f.Name}; len(queue) > 0; queue = queue[1:] {
			for _, s := range cl.sites[queue[0]] {
				if cfg.Inline(s) && !members[cl.callee[s]] {
					members[cl.callee[s]] = true
					queue = append(queue, cl.callee[s])
				}
			}
		}
		cc := &closureCase{base: cl.base, fn: f.Name, cfg: cfg.Clone()}
		var key strings.Builder
		fmt.Fprintf(&key, "%s:", f.Name)
		for _, m := range cl.base.Funcs {
			if members[m.Name] {
				cc.members = append(cc.members, m.Name)
				fmt.Fprintf(&key, " %s", m.Name)
				for _, s := range cl.sites[m.Name] {
					if cfg.Inline(s) {
						fmt.Fprintf(&key, ",%d", s)
					}
				}
			}
		}
		if !cl.seen[key.String()] {
			cl.seen[key.String()] = true
			cl.cases = append(cl.cases, cc)
		}
	}
}

// closureCase is one closure compile: function fn of base, inlined over
// members under cfg.
type closureCase struct {
	base    *ir.Module
	fn      string
	members []string
	cfg     *callgraph.Config
}

// compile inlines over a module of the closure's members and returns fn
// optimized, or nil if the inliner's growth bound tripped. With arena it
// clones into a only the members Apply writes and expands through Apply;
// without, it clones every member fresh and expands through the
// reference.
func (cc *closureCase) compile(a *ir.Arena, arena bool) *ir.Function {
	sub := a.NewModule(cc.base.Name)
	for _, name := range cc.members {
		f := cc.base.Func(name)
		if !arena || name == cc.fn || slices.ContainsFunc(f.Calls(), func(in *ir.Instr) bool { return cc.cfg.Inline(in.Site) }) {
			f = f.CloneIn(a)
		}
		sub.AddFunc(f)
	}
	var err error
	if arena {
		err = inline.Apply(sub, cc.cfg, inline.Options{Arena: a})
	} else {
		err = inline.RefApply(sub, cc.cfg)
	}
	if err != nil {
		return nil
	}
	fn := sub.Func(cc.fn)
	opt.Function(fn)
	return fn
}

// cost is the compile engine's per-entry cycle cost of a final body
// (CyclePricer.bodyCost).
func (cc *closureCase) cost(fn *ir.Function) int64 {
	if fn == nil {
		return 0
	}
	cost := int64(interp.CostCallOverhead) + int64(fn.NumParams())*interp.CostPerArg
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			cost += interp.CostOf(in)
			if in.Op == ir.OpCall && cc.base.Func(in.Callee) == nil {
				cost += interp.CostCallOverhead
			}
		}
	}
	return cost
}

// sameBody reports where two bodies differ when their blocks are named
// by index: block and instruction shapes, operators, constants, callees,
// sites and trails, and every value by its position and its printed ID
// and name. Equal bodies print the same with blocks named by index.
func sameBody(a, b *ir.Function) error {
	if a == nil || b == nil {
		if a != b {
			return fmt.Errorf("one side tripped the growth bound")
		}
		return nil
	}
	a.Number()
	b.Number()
	val := func(x, y *ir.Value) bool {
		return (x == nil) == (y == nil) && (x == nil || x.Num() == y.Num() && x.ID == y.ID && x.Name == y.Name)
	}
	vals := func(xs, ys []*ir.Value) bool {
		return slices.EqualFunc(xs, ys, val)
	}
	if len(a.Blocks) != len(b.Blocks) {
		return fmt.Errorf("%d blocks, reference %d", len(a.Blocks), len(b.Blocks))
	}
	for i, ab := range a.Blocks {
		bb := b.Blocks[i]
		if !vals(ab.Params, bb.Params) || len(ab.Instrs) != len(bb.Instrs) {
			return fmt.Errorf("block %d: parameters or length differ", i)
		}
		for k, x := range ab.Instrs {
			y := bb.Instrs[k]
			same := x.Op == y.Op && x.BinOp == y.BinOp && x.UnOp == y.UnOp && x.Const == y.Const &&
				x.Callee == y.Callee && x.Global == y.Global && x.Site == y.Site &&
				slices.Equal(x.Trail, y.Trail) && val(x.Result, y.Result) && vals(x.Args, y.Args) &&
				slices.EqualFunc(x.Succs, y.Succs, func(s, t ir.Succ) bool {
					return s.Dest.Num() == t.Dest.Num() && vals(s.Args, t.Args)
				})
			if !same {
				return fmt.Errorf("block %d, instruction %d differs", i, k)
			}
		}
	}
	return nil
}

// byIndex prints fn with every block named by its index.
func byIndex(fn *ir.Function) string {
	if fn == nil {
		return "<growth bound tripped>"
	}
	for i, b := range fn.Blocks {
		b.Name = fmt.Sprintf("b%d", i)
	}
	return fn.String()
}
