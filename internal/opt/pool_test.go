package opt

import (
	"fmt"
	"slices"
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/inline"
	"optinline/internal/ir"
	"optinline/internal/lang"
	"optinline/internal/workload"
)

// TestReusedStateMatchesFresh: one state, reused across functions whose
// sizes alternate between the largest and the smallest of a fully inlined
// corpus, must optimize each exactly as a fresh state does — the same
// body and the same Stats — and hold no pointer once released.
func TestReusedStateMatchesFresh(t *testing.T) {
	var funcs []*ir.Function
	add := func(m *ir.Module) {
		m = m.Clone()
		m.AssignSites()
		all := callgraph.NewConfig()
		for _, e := range callgraph.Build(m).Edges {
			all.Set(e.Site, true)
		}
		if err := inline.Apply(m, all, inline.Options{}); err != nil {
			t.Fatal(err)
		}
		funcs = append(funcs, m.Funcs...)
	}
	for seed := int64(1); seed <= 10; seed++ {
		mod, err := lang.Compile(fmt.Sprintf("fuzz%03d", seed), lang.GenerateSource(seed, lang.GenOptions{}))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		add(mod)
	}
	for _, p := range workload.SPECProfiles() {
		add(workload.Generate(p).Files[0].Module)
	}
	slices.SortStableFunc(funcs, func(a, b *ir.Function) int { return instrCount(a) - instrCount(b) })
	order := make([]*ir.Function, 0, len(funcs))
	for lo, hi := 0, len(funcs)-1; lo <= hi; lo, hi = lo+1, hi-1 {
		order = append(order, funcs[hi])
		if lo < hi {
			order = append(order, funcs[lo])
		}
	}

	reused := new(state)
	for _, f := range order {
		got, want := f.Clone(), f.Clone()
		gst, _ := reused.run(got, nil)
		reused.release()
		wst, _ := new(state).run(want, nil)
		if got.String() != want.String() {
			t.Fatalf("func %s: reused state's body differs from a fresh state's\ngot:\n%s\nwant:\n%s", f.Name, got, want)
		}
		if gst != wst {
			t.Fatalf("func %s: reused state's stats %+v, a fresh state's %+v", f.Name, gst, wst)
		}
		if held := heldPointers(reused); held != "" {
			t.Fatalf("after func %s: released state still holds %s", f.Name, held)
		}
	}
	if n := instrCount(order[0]); n < 100 {
		t.Fatalf("largest function has %d instructions: inputs too small", n)
	}
}

func instrCount(f *ir.Function) int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// heldPointers names a buffer of a released state that still points into
// IR, or returns "".
func heldPointers(s *state) string {
	switch {
	case s.f != nil || s.st != nil:
		return "its function"
	case slices.ContainsFunc(s.subst[:cap(s.subst)], func(v *ir.Value) bool { return v != nil }):
		return "a substitution"
	case slices.ContainsFunc(s.blockEdge[:cap(s.blockEdge)], func(e inEdge) bool { return e.instr != nil }):
		return "an edge"
	case slices.ContainsFunc(s.blockPred[:cap(s.blockPred)], func(b *ir.Block) bool { return b != nil }):
		return "a predecessor"
	case slices.ContainsFunc(s.blockStack[:cap(s.blockStack)], func(b *ir.Block) bool { return b != nil }):
		return "a block stack entry"
	case slices.ContainsFunc(s.dead[:cap(s.dead)], func(in *ir.Instr) bool { return in != nil }):
		return "a dead instruction"
	case slices.ContainsFunc(s.cse.dom.RPO[:cap(s.cse.dom.RPO)], func(b *ir.Block) bool { return b != nil }):
		return "a dominator-tree block"
	case slices.ContainsFunc(s.cse.table.slots, func(sl cseSlot) bool { return sl.val != nil }):
		return "a CSE table entry"
	}
	return ""
}
