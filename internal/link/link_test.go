package link

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/ir"
	"optinline/internal/search"
	"optinline/internal/workload"
)

// buildTU assembles a small translation unit: each entry of calls maps a
// function to its callees (defined here or not), each function gets a tiny
// arithmetic body, and exported marks the exported subset.
type tuSpec struct {
	name    string
	globals []string
	funcs   []fnSpec
	localG  []string
}

type fnSpec struct {
	name     string
	exported bool
	calls    []string
	loadG    string
	storeG   string
}

func buildTU(spec tuSpec) TU {
	m := ir.NewModule(spec.name)
	for _, g := range spec.globals {
		m.AddGlobal(g)
	}
	for _, fs := range spec.funcs {
		b := ir.NewFunction(fs.name, 1, fs.exported)
		v := b.Param(0)
		c := b.Const(3)
		v = b.Bin(ir.Add, v, c)
		if fs.loadG != "" {
			v = b.Bin(ir.Add, v, b.LoadG(fs.loadG))
		}
		for _, callee := range fs.calls {
			r := b.Call(callee, v)
			v = b.Bin(ir.Add, v, r)
		}
		if fs.storeG != "" {
			b.StoreG(fs.storeG, v)
		}
		b.Ret(v)
		m.AddFunc(b.Fn)
	}
	m.AssignSites()
	tu := ModuleTU(spec.name, m)
	tu.LocalGlobals = spec.localG
	return tu
}

func mustLink(t *testing.T, tus []TU, opts Options) (*Linker, *ir.Module) {
	t.Helper()
	l, err := New(tus, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m, err := l.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	return l, m
}

// checkedSize compiles the module in checked mode (ir.Verify after every
// stage) to prove the linker emitted structurally sound IR.
func checkedSize(t *testing.T, m *ir.Module) int {
	t.Helper()
	c := compile.NewWithOptions(m, codegen.TargetX86, compile.Options{Check: true})
	size := c.Size(callgraph.NewConfig())
	if err := c.CheckFailure(); err != nil {
		t.Fatalf("checked compile of linked module failed: %v", err)
	}
	return size
}

func TestLinkSingleTUIsIdentity(t *testing.T) {
	tu := buildTU(tuSpec{
		name:    "a",
		globals: []string{"state", "scratch"},
		localG:  []string{"scratch"},
		funcs: []fnSpec{
			{name: "root", exported: true, calls: []string{"helper", "ext_fn"}},
			{name: "helper", calls: []string{"leaf"}, storeG: "scratch"},
			{name: "leaf", loadG: "state"},
		},
	})
	orig, err := tu.Load()
	if err != nil {
		t.Fatal(err)
	}
	l, linked := mustLink(t, []TU{tu}, Options{ModuleName: "a"})
	if got, want := linked.Fingerprint(), orig.Fingerprint(); got != want {
		t.Fatalf("single-TU link is not the identity: fingerprint %x != %x", got, want)
	}
	if l.Plan().Renamed != 0 {
		t.Fatalf("single-TU link renamed %d functions", l.Plan().Renamed)
	}
	if n := l.Plan().ExternalCalls; n != 1 {
		t.Fatalf("external calls = %d, want 1 (ext_fn)", n)
	}
	checkedSize(t, linked)
}

func TestLinkDuplicateExportedIsError(t *testing.T) {
	a := buildTU(tuSpec{name: "a", funcs: []fnSpec{{name: "entry", exported: true}}})
	b := buildTU(tuSpec{name: "b", funcs: []fnSpec{{name: "entry", exported: true}}})
	_, err := New([]TU{a, b}, Options{})
	var dup *DuplicateSymbolError
	if !errors.As(err, &dup) {
		t.Fatalf("want *DuplicateSymbolError, got %v", err)
	}
	if dup.Name != "entry" || len(dup.TUs) != 2 {
		t.Fatalf("bad error detail: %+v", dup)
	}
}

func TestLinkDupExportedRename(t *testing.T) {
	a := buildTU(tuSpec{name: "a", funcs: []fnSpec{{name: "entry", exported: true}}})
	b := buildTU(tuSpec{name: "b", funcs: []fnSpec{
		{name: "entry", exported: true},
		{name: "caller", exported: true, calls: []string{"entry"}},
	}})
	_, linked := mustLink(t, []TU{a, b}, Options{DupExported: DupExportedRename})
	if linked.Func("entry") != nil {
		t.Fatal("plain 'entry' survived a rename-all policy")
	}
	var renamed []string
	for _, f := range linked.Funcs {
		if f.Name == "entry__tu000" || f.Name == "entry__tu001" {
			if !f.Exported {
				t.Fatalf("%s lost its exported linkage", f.Name)
			}
			renamed = append(renamed, f.Name)
		}
	}
	if len(renamed) != 2 {
		t.Fatalf("want both copies renamed, got %v", renamed)
	}
	// The cross-TU reference binds to no unit: a multiply-defined symbol
	// has no unique definition, so the call stays external. Crucially it
	// is NOT silently rewritten to b's own copy — b's 'entry' was local to
	// nothing (it is exported), so caller's reference is to the ambiguous
	// linker symbol...  except b defines it itself, and a unit's own
	// definition always shadows the external symbol table.
	g := callgraph.Build(linked)
	found := false
	for _, e := range g.Edges {
		if e.Caller == "caller" && e.Callee == "entry__tu001" {
			found = true
		}
	}
	if !found {
		t.Fatal("caller's reference to its own unit's entry was not rebound to the renamed copy")
	}
	checkedSize(t, linked)
}

func TestLinkLocalCollisionRenamedFingerprintsUnchanged(t *testing.T) {
	mk := func(tu string) TU {
		return buildTU(tuSpec{name: tu, funcs: []fnSpec{
			{name: tu + "_root", exported: true, calls: []string{"helper"}},
			{name: "helper"},
		}})
	}
	a, b := mk("a"), mk("b")
	am, _ := a.Load()
	origFP := am.Func("helper").Fingerprint()

	l, linked := mustLink(t, []TU{a, b}, Options{})
	if l.Plan().Renamed != 2 {
		t.Fatalf("renamed = %d, want both local helpers", l.Plan().Renamed)
	}
	for _, name := range []string{"helper__tu000", "helper__tu001"} {
		f := linked.Func(name)
		if f == nil {
			t.Fatalf("renamed copy %s missing", name)
		}
		if f.Exported {
			t.Fatalf("%s became exported", name)
		}
		if got := f.Fingerprint(); got != origFP {
			t.Fatalf("rename changed %s's content fingerprint: %x != %x", name, got, origFP)
		}
	}
	// Each root's call must bind to its own unit's renamed copy.
	g := callgraph.Build(linked)
	want := map[string]string{"a_root": "helper__tu000", "b_root": "helper__tu001"}
	for _, e := range g.Edges {
		if w, ok := want[e.Caller]; ok {
			if e.Callee != w {
				t.Fatalf("%s calls %s, want %s", e.Caller, e.Callee, w)
			}
			delete(want, e.Caller)
		}
	}
	if len(want) != 0 {
		t.Fatalf("missing rebound edges: %v", want)
	}
	checkedSize(t, linked)
}

func TestLinkLocalDefShadowsExported(t *testing.T) {
	a := buildTU(tuSpec{name: "a", funcs: []fnSpec{
		{name: "a_root", exported: true, calls: []string{"helper"}},
		{name: "helper"}, // local, collides with b's exported helper
	}})
	b := buildTU(tuSpec{name: "b", funcs: []fnSpec{{name: "helper", exported: true}}})
	c := buildTU(tuSpec{name: "c", funcs: []fnSpec{
		{name: "c_root", exported: true, calls: []string{"helper"}},
	}})
	_, linked := mustLink(t, []TU{a, b, c}, Options{})
	g := callgraph.Build(linked)
	got := map[string]string{}
	for _, e := range g.Edges {
		got[e.Caller] = e.Callee
	}
	if got["a_root"] != "helper__tu000" {
		t.Fatalf("a_root binds to %q, want its own local helper__tu000", got["a_root"])
	}
	if got["c_root"] != "helper" {
		t.Fatalf("c_root binds to %q, want b's exported helper", got["c_root"])
	}
	if f := linked.Func("helper"); f == nil || !f.Exported {
		t.Fatal("b's exported helper should keep its name and linkage")
	}
}

func TestLinkGlobals(t *testing.T) {
	a := buildTU(tuSpec{
		name: "a", globals: []string{"shared", "scratch"}, localG: []string{"scratch"},
		funcs: []fnSpec{{name: "a_f", exported: true, loadG: "shared", storeG: "scratch"}},
	})
	b := buildTU(tuSpec{
		name: "b", globals: []string{"shared", "scratch"}, localG: []string{"scratch"},
		funcs: []fnSpec{{name: "b_f", exported: true, loadG: "shared", storeG: "scratch"}},
	})
	c := buildTU(tuSpec{
		name: "c", globals: []string{"only"}, localG: []string{"only"},
		funcs: []fnSpec{{name: "c_f", exported: true, storeG: "only"}},
	})
	_, linked := mustLink(t, []TU{a, b, c}, Options{})
	want := []string{"shared", "only", "scratch__tu000", "scratch__tu001"}
	if !reflect.DeepEqual(linked.Globals, want) {
		t.Fatalf("globals = %v, want %v", linked.Globals, want)
	}
	// Each unit's store must target its own renamed copy.
	seen := map[string]string{}
	for _, f := range linked.Funcs {
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				if in.Op == ir.OpStoreG {
					seen[f.Name] = in.Global
				}
			}
		}
	}
	if seen["a_f"] != "scratch__tu000" || seen["b_f"] != "scratch__tu001" || seen["c_f"] != "only" {
		t.Fatalf("store targets = %v", seen)
	}
	checkedSize(t, linked)
}

func TestLinkInternalize(t *testing.T) {
	a := buildTU(tuSpec{name: "a", funcs: []fnSpec{
		{name: "main", exported: true, calls: []string{"api"}},
	}})
	b := buildTU(tuSpec{name: "b", funcs: []fnSpec{{name: "api", exported: true}}})
	_, linked := mustLink(t, []TU{a, b}, Options{Internalize: true, Roots: []string{"main"}})
	if f := linked.Func("api"); f == nil || f.Exported {
		t.Fatal("api should have been internalized")
	}
	if f := linked.Func("main"); f == nil || !f.Exported {
		t.Fatal("root main must stay exported")
	}
	if _, err := New([]TU{a, b}, Options{Internalize: true, Roots: []string{"nosuch"}}); err == nil {
		t.Fatal("unknown root accepted")
	}
}

func TestLinkDuplicateTUNames(t *testing.T) {
	a := buildTU(tuSpec{name: "a", funcs: []fnSpec{{name: "f", exported: true}}})
	if _, err := New([]TU{a, a}, Options{}); err == nil {
		t.Fatal("duplicate TU names accepted")
	}
}

func TestLazyTUFingerprintGuard(t *testing.T) {
	stable := buildTU(tuSpec{name: "a", funcs: []fnSpec{{name: "f", exported: true}}})
	sm, _ := stable.Load()
	loads := 0
	drifting := LazyTU("b", func() (*ir.Module, error) {
		loads++
		m := ir.NewModule("b")
		b := ir.NewFunction("g", 1, true)
		v := b.Param(0)
		// Body depends on load count: second load differs from planning.
		v = b.Bin(ir.Add, v, b.Const(int64(loads)))
		b.Ret(v)
		m.AddFunc(b.Fn)
		m.AssignSites()
		return m, nil
	})
	l, err := New([]TU{ModuleTU("a", sm), drifting}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Link(); err == nil {
		t.Fatal("materialize accepted a TU that changed after planning")
	}
}

// TestLinkPermutationInvariance is the satellite property test: the plan —
// layout, renames, site numbering, candidate edges, and in particular the
// component split — must be a pure function of the TU set, not of input
// order.
func TestLinkPermutationInvariance(t *testing.T) {
	lp := workload.LinkedProfiles()[0] // linked-s
	base := CorpusTUs(workload.GenerateLinked(lp))
	ref, refM := mustLink(t, base, Options{})
	refPlan := ref.Plan()

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]TU(nil), base...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		l, m := mustLink(t, shuffled, Options{})
		if got, want := m.Fingerprint(), refM.Fingerprint(); got != want {
			t.Fatalf("trial %d: linked module depends on TU order (%x != %x)", trial, got, want)
		}
		p := l.Plan()
		if !reflect.DeepEqual(p.Components, refPlan.Components) {
			t.Fatalf("trial %d: component split depends on TU order", trial)
		}
		if !reflect.DeepEqual(p.Edges, refPlan.Edges) {
			t.Fatalf("trial %d: candidate edges depend on TU order", trial)
		}
		for ci := range p.Components {
			a, b := p.ComponentMultigraph(ci), refPlan.ComponentMultigraph(ci)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("trial %d: component %d multigraph differs", trial, ci)
			}
			if len(a.Edges) > 0 {
				ea, eb := search.SelectPartitionEdge(a), search.SelectPartitionEdge(b)
				if ea.ID != eb.ID {
					t.Fatalf("trial %d: partition edge for component %d depends on TU order (%d != %d)", trial, ci, ea.ID, eb.ID)
				}
			}
		}
	}
}

// TestPlanMatchesMaterializedGraph pins the streamed, summary-based plan to
// the ground truth: the candidate graph callgraph.Build extracts from the
// fully materialized module.
func TestPlanMatchesMaterializedGraph(t *testing.T) {
	lp := workload.LinkedProfiles()[0]
	tus := CorpusTUs(workload.GenerateLinked(lp))
	l, linked := mustLink(t, tus, Options{})
	p := l.Plan()

	g := callgraph.Build(linked)
	if len(g.Edges) != len(p.Edges) {
		t.Fatalf("plan has %d candidate edges, module has %d", len(p.Edges), len(g.Edges))
	}
	bySite := map[int][2]string{}
	for _, e := range g.Edges {
		bySite[e.Site] = [2]string{e.Caller, e.Callee}
	}
	for _, pe := range p.Edges {
		got, ok := bySite[pe.Site]
		if !ok {
			t.Fatalf("planned site %d not in module graph", pe.Site)
		}
		want := [2]string{p.Funcs[pe.Caller].Name, p.Funcs[pe.Callee].Name}
		if got != want {
			t.Fatalf("site %d: plan %v, module %v", pe.Site, want, got)
		}
	}

	// The plan's compacted component multigraphs must carry exactly the
	// site IDs of the module's own component split, component by component.
	subs := search.ComponentSubgraphs(g)
	if len(subs) != len(p.Components) {
		t.Fatalf("plan has %d components, module graph %d", len(p.Components), len(subs))
	}
	for ci, sub := range subs {
		want := map[int]bool{}
		for _, e := range sub.Edges {
			want[e.ID] = true
		}
		mg := p.ComponentMultigraph(ci)
		if len(mg.Edges) != len(sub.Edges) {
			t.Fatalf("component %d: %d planned edges, %d in module graph", ci, len(mg.Edges), len(sub.Edges))
		}
		for _, e := range mg.Edges {
			if !want[e.ID] {
				t.Fatalf("component %d: planned site %d not in module component", ci, e.ID)
			}
		}
	}

	// Materialized components partition the module's functions with the
	// residual, and sizes are additive across the partition.
	target := codegen.TargetX86
	total := 0
	for ci := range p.Components {
		cm, err := l.Component(ci)
		if err != nil {
			t.Fatal(err)
		}
		total += codegen.ModuleSize(cm, target)
	}
	resid, err := l.materialize("residual", func(pf *PlannedFunc) bool { return pf.Comp < 0 })
	if err != nil {
		t.Fatal(err)
	}
	total += codegen.ModuleSize(resid, target)
	if want := codegen.ModuleSize(linked, target); total != want {
		t.Fatalf("component+residual sizes sum to %d, module is %d", total, want)
	}
}

func TestLinkSummaryCacheSharesStructuralTwins(t *testing.T) {
	cache := NewSummaryCache()
	lp := workload.LinkedProfiles()[0]
	tus := CorpusTUs(workload.GenerateLinked(lp))
	if _, err := New(tus, Options{Summaries: cache}); err != nil {
		t.Fatal(err)
	}
	if cache.Misses() != int64(len(tus)) || cache.Hits() != 0 {
		t.Fatalf("first link: hits=%d misses=%d, want 0/%d", cache.Hits(), cache.Misses(), len(tus))
	}
	// Re-linking the same units is all hits: summaries are content-keyed.
	if _, err := New(tus, Options{Summaries: cache}); err != nil {
		t.Fatal(err)
	}
	if cache.Hits() != int64(len(tus)) {
		t.Fatalf("second link: hits=%d, want %d", cache.Hits(), len(tus))
	}
}

func TestLinkedCorpusScale(t *testing.T) {
	// The mega profiles must actually deliver the promised scale: ≥10× the
	// 600-edge SQLite unit for linked-x10, ≥30× for linked-x30 — checked
	// from plan summaries alone, without materializing the mega-modules.
	if testing.Short() {
		t.Skip("corpus generation is slow in -short mode")
	}
	for _, tc := range []struct {
		name string
		min  int
	}{{"linked-x10", 6000}, {"linked-x30", 18000}} {
		lp, ok := workload.LinkedProfileByName(tc.name)
		if !ok {
			t.Fatalf("profile %s missing", tc.name)
		}
		l, err := New(CorpusTUs(workload.GenerateLinked(lp)), Options{})
		if err != nil {
			t.Fatal(err)
		}
		p := l.Plan()
		if len(p.Edges) < tc.min {
			t.Fatalf("%s: %d candidate edges, want >= %d", tc.name, len(p.Edges), tc.min)
		}
		if p.CrossTU == 0 {
			t.Fatalf("%s: no cross-TU candidate edges", tc.name)
		}
		if len(p.Components) < 2 {
			t.Fatalf("%s: %d components, sharding needs several", tc.name, len(p.Components))
		}
		if p.Renamed == 0 {
			t.Fatalf("%s: colliding locals were not renamed", tc.name)
		}
	}
}
