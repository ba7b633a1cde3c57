// Package link merges many translation units into one module — the
// repository's stand-in for LTO-style cross-module compilation, the setting
// in which the paper's SQLite case study (§5.2.3) finds the big inlining
// wins: calls that cross file boundaries are not inlinable per-file, but
// become ordinary candidate edges once the units are linked.
//
// The linker is summary-based and streamed: planning consumes only per-TU
// symbol summaries (cached by ir.Fingerprint content keys, see summary.go),
// never more than one loaded unit at a time, so the memory high-water mark
// of building a linked mega-module's call graph stays proportional to the
// largest unit, not the sum. The resulting Plan fixes everything
// deterministically — symbol resolution, collision renaming, call-site
// numbering, and the connected-component partition of the candidate graph —
// before any IR is merged, which is what lets the optimal/autotune search
// run per component on separately materialized sub-modules (search.go,
// tune.go) and still produce byte-identical results to a single-module run.
//
// Determinism: the plan is a pure function of the TU *contents* and names,
// never of their order — units are canonicalized by name first — so linking
// the same units in any input order yields bit-identical modules.
package link

import (
	"fmt"
	"sort"

	"optinline/internal/graph"
	"optinline/internal/ir"
)

// TU is one translation unit handed to the linker. Units are either eager
// (wrapping an already-loaded module) or lazy (a loader invoked each time
// the unit's IR is needed; the linker never caches loads, which is what
// keeps streamed linking's memory flat). A lazy loader must be
// deterministic: the linker verifies every reload against the planning-time
// module fingerprint and fails loudly on drift.
type TU struct {
	// Name identifies the unit; it must be unique across the link and is
	// used for canonical ordering and rename suffixes.
	Name string
	// LocalGlobals lists globals that are file-local to this unit (C
	// "static"): when another unit uses the same global name, this unit's
	// copy is renamed instead of merged. Globals not listed here merge
	// by name across units (C extern/common linkage).
	LocalGlobals []string

	load func() (*ir.Module, error)
}

// ModuleTU wraps an eagerly loaded module as a TU.
func ModuleTU(name string, m *ir.Module) TU {
	return TU{Name: name, load: func() (*ir.Module, error) { return m, nil }}
}

// LazyTU wraps a deterministic loader as a TU.
func LazyTU(name string, load func() (*ir.Module, error)) TU {
	return TU{Name: name, load: load}
}

// Load returns the unit's module.
func (t TU) Load() (*ir.Module, error) {
	if t.load == nil {
		return nil, fmt.Errorf("link: TU %q has no loader", t.Name)
	}
	m, err := t.load()
	if err != nil {
		return nil, fmt.Errorf("link: load %s: %w", t.Name, err)
	}
	if m == nil {
		return nil, fmt.Errorf("link: load %s: nil module", t.Name)
	}
	return m, nil
}

// DupPolicy selects how duplicate exported symbols across units are
// handled.
type DupPolicy int

const (
	// DupExportedError rejects the link when two units export the same
	// symbol (the C linker's "multiple definition" hard error). Default.
	DupExportedError DupPolicy = iota
	// DupExportedRename renames every copy of a multiply-exported symbol
	// (name__tuNNN), keeps each copy exported, and binds no cross-TU calls
	// to the name — references to it from other units stay external. This
	// is the policy for linking independent programs that all export the
	// same entry point (e.g. the examples/minc corpus).
	DupExportedRename
)

// ParseDupPolicy returns the policy named "error" (DupExportedError) or
// "rename" (DupExportedRename); the empty name selects the default,
// DupExportedError. The CLIs' -link-dup flag and the daemon's dupPolicy
// field parse through it.
func ParseDupPolicy(name string) (DupPolicy, error) {
	switch name {
	case "", "error":
		return DupExportedError, nil
	case "rename":
		return DupExportedRename, nil
	}
	return DupExportedError, fmt.Errorf("unknown dupPolicy %q (want error or rename)", name)
}

// Options configures a link.
type Options struct {
	// ModuleName names the merged module; empty means "linked".
	ModuleName string
	// DupExported selects the duplicate-exported-symbol policy.
	DupExported DupPolicy
	// Internalize restricts the merged module's exported set to Roots:
	// every function not named there becomes internal, which is what makes
	// cross-TU callees eligible for inlining-driven dead-function
	// elimination — the LTO win the paper's amalgamation study measures.
	Internalize bool
	// Roots are linked function names kept exported under Internalize.
	// Unknown names are an error (they would silently change semantics).
	Roots []string
	// Summaries is the content-keyed summary cache to use; nil selects a
	// process-wide shared cache.
	Summaries *SummaryCache
}

func (o Options) moduleName() string {
	if o.ModuleName == "" {
		return "linked"
	}
	return o.ModuleName
}

// DuplicateSymbolError reports an exported symbol defined by several units
// under DupExportedError.
type DuplicateSymbolError struct {
	Name string
	TUs  []string
}

func (e *DuplicateSymbolError) Error() string {
	return fmt.Sprintf("link: duplicate exported symbol %q defined in %d units: %v", e.Name, len(e.TUs), e.TUs)
}

// PlannedFunc is one function of the merged module, in final layout order.
type PlannedFunc struct {
	TU       int    // canonical unit index
	Src      string // name inside its unit
	Name     string // linked name (== Src unless renamed)
	Exported bool   // linked linkage (after Internalize)
	SiteID   int    // first call-site ID; calls occupy [SiteID, SiteID+NCalls)
	NCalls   int
	Comp     int // edge-bearing component index, or -1
}

// PlannedEdge is one candidate call edge of the merged module.
type PlannedEdge struct {
	Site           int
	Caller, Callee int // indices into Plan.Funcs
}

// Plan is the deterministic result of symbol resolution over the unit
// summaries: the complete layout, naming, site numbering, candidate edges,
// and component partition of the merged module — everything the sharded
// search needs, with no merged IR materialized.
type Plan struct {
	TUs     []string // canonical unit names
	Funcs   []PlannedFunc
	ByName  map[string]int // linked name -> Funcs index
	Globals []string       // merged global list, first-seen canonical order

	Edges         []PlannedEdge // candidate edges, ascending site
	CrossTU       int           // candidate edges whose endpoints live in different units
	ExternalCalls int           // call sites bound to no unit (stay external)

	Components [][]int // Funcs indices per edge-bearing component, by smallest member
	Renamed    int     // functions whose linked name differs from their source name

	fnRenames     []map[string]string // per unit: src fn name -> linked name (non-identity only)
	globalRenames []map[string]string // per unit: src global -> linked name (non-identity only)
}

// ComponentEdges returns the candidate edges of one component, ascending
// site order.
func (p *Plan) ComponentEdges(ci int) []PlannedEdge {
	var out []PlannedEdge
	for _, e := range p.Edges {
		if p.Funcs[e.Caller].Comp == ci {
			out = append(out, e)
		}
	}
	return out
}

// ComponentMultigraph returns the undirected multigraph of one component
// with nodes compacted to 0..len(members)-1 in layout order — the exact
// graph callgraph.Build would produce for the materialized component
// module, so space accounting and partition-edge selection agree between
// the sharded and single-module paths.
func (p *Plan) ComponentMultigraph(ci int) *graph.Multigraph {
	members := p.Components[ci]
	local := make(map[int]int, len(members))
	for i, f := range members {
		local[f] = i
	}
	mg := &graph.Multigraph{N: len(members)}
	for _, e := range p.ComponentEdges(ci) {
		mg.Edges = append(mg.Edges, graph.Edge{ID: e.Site, U: local[e.Caller], V: local[e.Callee]})
	}
	return mg
}

// Sites returns all candidate site IDs, ascending.
func (p *Plan) Sites() []int {
	out := make([]int, len(p.Edges))
	for i, e := range p.Edges {
		out[i] = e.Site
	}
	return out
}

// Linker owns a set of units and their link plan.
type Linker struct {
	tus   []TU // canonical order
	opts  Options
	sums  []*tuSummary // canonical order; plan-time fingerprints
	plan  *Plan
	cache *SummaryCache
}

// New canonicalizes the units, summarizes them (one load each, streamed),
// and builds the link plan. The input slice is not modified.
func New(tus []TU, opts Options) (*Linker, error) {
	cache := opts.Summaries
	if cache == nil {
		cache = defaultSummaries
	}
	ordered := append([]TU(nil), tus...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Name < ordered[j].Name })
	for i := 1; i < len(ordered); i++ {
		if ordered[i].Name == ordered[i-1].Name {
			return nil, fmt.Errorf("link: duplicate TU name %q", ordered[i].Name)
		}
	}
	if len(ordered) == 0 {
		return nil, fmt.Errorf("link: no translation units")
	}
	l := &Linker{tus: ordered, opts: opts, cache: cache}
	for _, tu := range ordered {
		m, err := tu.Load()
		if err != nil {
			return nil, err
		}
		l.sums = append(l.sums, cache.summarize(m))
	}
	plan, err := buildPlan(l.tus, l.sums, opts)
	if err != nil {
		return nil, err
	}
	l.plan = plan
	return l, nil
}

// Plan returns the link plan.
func (l *Linker) Plan() *Plan { return l.plan }

// TUs returns the canonicalized units.
func (l *Linker) TUs() []TU { return l.tus }

// buildPlan performs deterministic symbol resolution over the summaries.
func buildPlan(tus []TU, sums []*tuSummary, opts Options) (*Plan, error) {
	p := &Plan{
		ByName:        make(map[string]int),
		fnRenames:     make([]map[string]string, len(tus)),
		globalRenames: make([]map[string]string, len(tus)),
	}
	for _, tu := range tus {
		p.TUs = append(p.TUs, tu.Name)
	}

	// Pass 1: name occupancy. A function name "keeps" its spelling when it
	// is defined by exactly one unit, or when exactly one of its definers
	// exports it (the exported definition is the linkable symbol; locals
	// yield). Multiply-exported names follow the DupPolicy.
	type occ struct {
		tus      []int
		exported []int
	}
	occs := make(map[string]*occ)
	for t, s := range sums {
		for _, f := range s.funcs {
			o := occs[f.name]
			if o == nil {
				o = &occ{}
				occs[f.name] = o
			}
			o.tus = append(o.tus, t)
			if f.exported {
				o.exported = append(o.exported, t)
			}
		}
	}
	names := make([]string, 0, len(occs))
	for n := range occs {
		names = append(names, n)
	}
	sort.Strings(names)

	// keeps[t][name] reports whether (t, name) keeps its spelling.
	keeps := func(name string, t int) bool {
		o := occs[name]
		if len(o.tus) == 1 {
			return true
		}
		if len(o.exported) == 1 {
			return o.exported[0] == t
		}
		return false // multiply-exported handled below, all-local renames all
	}
	// symtab maps an exported name to its defining unit for cross-TU call
	// binding; multiply-exported names never enter it.
	symtab := make(map[string]int)
	for _, n := range names {
		o := occs[n]
		if len(o.exported) > 1 {
			if opts.DupExported == DupExportedError {
				dup := &DuplicateSymbolError{Name: n}
				for _, t := range o.exported {
					dup.TUs = append(dup.TUs, tus[t].Name)
				}
				return nil, dup
			}
			continue // DupExportedRename: no binding, every copy renamed
		}
		if len(o.exported) == 1 {
			symtab[n] = o.exported[0]
		}
	}

	// Pass 2: final names. Kept names are reserved first so a rename can
	// never collide with a later kept name; renames then claim
	// name__tuNNN (NNN = canonical unit index), with a numeric suffix as a
	// last resort against pathological inputs that already contain such
	// names. Both passes run in layout order, which is itself canonical.
	taken := make(map[string]bool)
	for t, s := range sums {
		for _, f := range s.funcs {
			if keeps(f.name, t) {
				taken[f.name] = true
			}
		}
	}
	rootSet := make(map[string]bool, len(opts.Roots))
	for _, r := range opts.Roots {
		rootSet[r] = true
	}
	site := 1
	for t, s := range sums {
		for _, f := range s.funcs {
			linked := f.name
			if !keeps(f.name, t) {
				base := fmt.Sprintf("%s__tu%03d", f.name, t)
				linked = base
				for k := 2; taken[linked]; k++ {
					linked = fmt.Sprintf("%s_%d", base, k)
				}
				taken[linked] = true
				if p.fnRenames[t] == nil {
					p.fnRenames[t] = make(map[string]string)
				}
				p.fnRenames[t][f.name] = linked
				p.Renamed++
			}
			exported := f.exported
			if opts.Internalize {
				exported = rootSet[linked]
			}
			p.ByName[linked] = len(p.Funcs)
			p.Funcs = append(p.Funcs, PlannedFunc{
				TU:       t,
				Src:      f.name,
				Name:     linked,
				Exported: exported,
				SiteID:   site,
				NCalls:   len(f.calls),
				Comp:     -1,
			})
			site += len(f.calls)
		}
	}
	if opts.Internalize {
		for r := range rootSet {
			if _, ok := p.ByName[r]; !ok {
				return nil, fmt.Errorf("link: root %q names no linked function", r)
			}
		}
	}

	// Pass 3: globals. Shared globals merge by name in first-seen canonical
	// order; a global listed as file-local by a unit is renamed only when
	// some other unit also uses the name (so a link of one unit stays the
	// identity).
	users := make(map[string]int)
	for _, s := range sums {
		for _, g := range s.globals {
			users[g]++
		}
	}
	gTaken := make(map[string]bool)
	for t, s := range sums {
		localSet := make(map[string]bool, len(tus[t].LocalGlobals))
		for _, g := range tus[t].LocalGlobals {
			localSet[g] = true
		}
		for _, g := range s.globals {
			if localSet[g] && users[g] > 1 {
				continue // renamed below, after shared names are reserved
			}
			if !gTaken[g] {
				gTaken[g] = true
				p.Globals = append(p.Globals, g)
			}
		}
	}
	for t, s := range sums {
		localSet := make(map[string]bool, len(tus[t].LocalGlobals))
		for _, g := range tus[t].LocalGlobals {
			localSet[g] = true
		}
		for _, g := range s.globals {
			if !localSet[g] || users[g] <= 1 {
				continue
			}
			base := fmt.Sprintf("%s__tu%03d", g, t)
			linked := base
			for k := 2; gTaken[linked]; k++ {
				linked = fmt.Sprintf("%s_%d", base, k)
			}
			gTaken[linked] = true
			p.Globals = append(p.Globals, linked)
			if p.globalRenames[t] == nil {
				p.globalRenames[t] = make(map[string]string)
			}
			p.globalRenames[t][g] = linked
		}
	}

	// Pass 4: call binding and candidate edges. Within a unit a call binds
	// to the unit's own definition first (internal linkage shadows
	// external), then to the unique exported definition of another unit,
	// else it stays external.
	for fi := range p.Funcs {
		pf := &p.Funcs[fi]
		fsum := sums[pf.TU].funcs[sums[pf.TU].byName[pf.Src]]
		for k, callee := range fsum.calls {
			siteID := pf.SiteID + k
			var target int
			if j, ok := sums[pf.TU].byName[callee]; ok {
				target = funcIndex(p, pf.TU, j, sums)
			} else if owner, ok := symtab[callee]; ok {
				target = funcIndex(p, owner, sums[owner].byName[callee], sums)
			} else {
				p.ExternalCalls++
				continue
			}
			p.Edges = append(p.Edges, PlannedEdge{Site: siteID, Caller: fi, Callee: target})
			if p.Funcs[target].TU != pf.TU {
				p.CrossTU++
			}
		}
	}

	// Pass 5: component partition (union-find over candidate edges).
	parent := make([]int, len(p.Funcs))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range p.Edges {
		a, b := find(e.Caller), find(e.Callee)
		if a != b {
			if a > b {
				a, b = b, a
			}
			parent[b] = a
		}
	}
	hasEdge := make([]bool, len(p.Funcs))
	for _, e := range p.Edges {
		hasEdge[e.Caller] = true
		hasEdge[e.Callee] = true
	}
	compOf := make(map[int]int) // root -> component index
	for fi := range p.Funcs {
		if !hasEdge[fi] {
			continue
		}
		root := find(fi)
		ci, ok := compOf[root]
		if !ok {
			ci = len(p.Components)
			compOf[root] = ci
			p.Components = append(p.Components, nil)
		}
		p.Funcs[fi].Comp = ci
		p.Components[ci] = append(p.Components[ci], fi)
	}
	return p, nil
}

// funcIndex maps (unit, function-in-unit) to the layout index. Layout is
// unit-major in summary order, so the index is a prefix sum.
func funcIndex(p *Plan, t, j int, sums []*tuSummary) int {
	base := 0
	for i := 0; i < t; i++ {
		base += len(sums[i].funcs)
	}
	return base + j
}

// Link materializes the full merged module.
func (l *Linker) Link() (*ir.Module, error) {
	return l.materialize(l.opts.moduleName(), func(pf *PlannedFunc) bool { return true })
}

// Component materializes the sub-module holding exactly the functions of
// one edge-bearing component (plus the merged global list). Its candidate
// call graph is the component's planned edges with their planned site IDs:
// a configuration found by searching it composes directly with the other
// components' configurations into a configuration of the full linked
// module.
func (l *Linker) Component(ci int) (*ir.Module, error) {
	if ci < 0 || ci >= len(l.plan.Components) {
		return nil, fmt.Errorf("link: component %d out of range (have %d)", ci, len(l.plan.Components))
	}
	name := fmt.Sprintf("%s#c%03d", l.opts.moduleName(), ci)
	return l.materialize(name, func(pf *PlannedFunc) bool { return pf.Comp == ci })
}

// Residual materializes the sub-module of functions with no incident
// candidate edge. Inlining decisions cannot affect them; their size under
// the empty configuration completes a sharded total.
func (l *Linker) Residual() (*ir.Module, error) {
	return l.materialize(l.opts.moduleName()+"#residual", func(pf *PlannedFunc) bool { return pf.Comp < 0 })
}

// materialize streams the selected planned functions into a fresh module:
// units are loaded one at a time (skipping units with no selected
// function), each selected function is cloned, renamed, its call sites
// renumbered to the planned IDs, and its callee/global references rewritten
// per the plan.
func (l *Linker) materialize(name string, want func(*PlannedFunc) bool) (*ir.Module, error) {
	m := ir.NewModule(name)
	for _, g := range l.plan.Globals {
		m.AddGlobal(g)
	}
	// Group selected functions by unit to load each unit at most once.
	perTU := make([][]int, len(l.tus))
	for fi := range l.plan.Funcs {
		pf := &l.plan.Funcs[fi]
		if want(pf) {
			perTU[pf.TU] = append(perTU[pf.TU], fi)
		}
	}
	for t := range l.tus {
		if len(perTU[t]) == 0 {
			continue
		}
		mod, err := l.tus[t].Load()
		if err != nil {
			return nil, err
		}
		if fp := mod.Fingerprint(); fp != l.sums[t].fp {
			return nil, fmt.Errorf("link: TU %s changed between planning and materialization (fingerprint %x != %x)", l.tus[t].Name, fp, l.sums[t].fp)
		}
		for _, fi := range perTU[t] {
			pf := &l.plan.Funcs[fi]
			src := mod.Func(pf.Src)
			if src == nil {
				return nil, fmt.Errorf("link: TU %s lost function %s", l.tus[t].Name, pf.Src)
			}
			nf := src.Clone()
			nf.Name = pf.Name
			nf.Exported = pf.Exported
			site := pf.SiteID
			for _, b := range nf.Blocks {
				for _, in := range b.Instrs {
					switch in.Op {
					case ir.OpCall:
						in.Site = site
						site++
						if nn, ok := l.plan.fnRenames[t][in.Callee]; ok {
							in.Callee = nn
						}
					case ir.OpLoadG, ir.OpStoreG:
						if nn, ok := l.plan.globalRenames[t][in.Global]; ok {
							in.Global = nn
						}
					}
				}
			}
			m.AddFunc(nf)
		}
	}
	return m, nil
}

// Link is the convenience one-shot: canonicalize, plan, materialize.
func Link(tus []TU, opts Options) (*ir.Module, error) {
	l, err := New(tus, opts)
	if err != nil {
		return nil, err
	}
	return l.Link()
}
