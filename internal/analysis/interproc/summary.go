// Package interproc implements the interprocedural summary tier the
// paper's findings call for: local, per-site heuristics diverge from the
// optimal inlining configuration precisely because they lack
// whole-callgraph facts, so this package computes them once per module —
// a bottom-up fixpoint over the strongly connected components of the
// call graph producing one Summary per function — and exposes them three
// ways: cross-function lints (lints.go), the versioned per-site feature
// vectors consumed by internal/heuristic and internal/mlheur
// (features.go), and the inlined daemon's /analyze endpoint.
//
// Summaries are split into a cacheable core and a per-module overlay.
// The core is everything derivable from the function closure alone —
// purity, MOD/REF global sets, the constant-return lattice value,
// per-parameter usage, read-before-write global sets, loop-nest depth,
// recursion shape — and is cached corpus-wide (cache.go) under a
// content key derived from ir.Function.Fingerprint, so re-analyzing an
// unchanged function costs a map lookup. The overlay — fan-in/fan-out,
// incoming-argument constness, transitive size, export flags — depends
// on the surrounding module and is recomputed on every Analyze call; it
// is cheap by construction.
package interproc

import (
	"encoding/json"
	"fmt"
	"sort"

	"optinline/internal/callgraph"
	"optinline/internal/ir"
)

// ConstState is the lattice position of a ConstVal.
type ConstState uint8

// The three-point constant lattice: Bottom (no value ever produced — the
// optimistic start, and the final state of functions that never return),
// Known (every producing execution yields the same constant), Top (at
// least two values, or a value the analysis cannot pin down).
const (
	ConstBottom ConstState = iota
	ConstKnown
	ConstTop
)

// ConstVal is a value in the constant lattice.
type ConstVal struct {
	State ConstState
	K     int64 // meaningful only when State == ConstKnown
}

func known(k int64) ConstVal { return ConstVal{State: ConstKnown, K: k} }
func top() ConstVal          { return ConstVal{State: ConstTop} }

func (c ConstVal) join(o ConstVal) ConstVal {
	switch {
	case c.State == ConstBottom:
		return o
	case o.State == ConstBottom:
		return c
	case c.State == ConstKnown && o.State == ConstKnown && c.K == o.K:
		return c
	}
	return top()
}

// String renders the lattice value for diagnostics and tests.
func (c ConstVal) String() string {
	switch c.State {
	case ConstBottom:
		return "bottom"
	case ConstKnown:
		return fmt.Sprintf("const(%d)", c.K)
	}
	return "top"
}

// MarshalJSON emits {"state":"bottom"|"top"} or
// {"state":"known","value":N} — the /analyze wire form.
func (c ConstVal) MarshalJSON() ([]byte, error) {
	switch c.State {
	case ConstBottom:
		return []byte(`{"state":"bottom"}`), nil
	case ConstKnown:
		return []byte(fmt.Sprintf(`{"state":"known","value":%d}`, c.K)), nil
	}
	return []byte(`{"state":"top"}`), nil
}

// ParamSummary describes how one function parameter is used. Dead is
// exact (the parameter value has zero uses in the body); PassedOn,
// Escapes, and Returned track direct flow only — a parameter routed
// through an arithmetic op before being stored does not count as
// escaping, which is the sound direction for every consumer here (the
// IR has value semantics, so "escapes" means the raw value reaches a
// global store or the output stream).
type ParamSummary struct {
	Dead     bool `json:"dead"`
	PassedOn bool `json:"passedOn"` // appears as an argument of some call
	Escapes  bool `json:"escapes"`  // appears as the operand of a StoreG or Output
	Returned bool `json:"returned"` // appears as the operand of a Ret

	// Incoming joins the constness of the argument passed at every
	// in-module call site: Bottom when no site calls the function,
	// Known(k) when every site passes the literal k. Overlay fact.
	Incoming ConstVal `json:"incoming"`
}

// Summary is the interprocedural summary of one defined function.
// Fields below the overlay marker are recomputed per module; everything
// else is the cached core. Slices are shared between cache hits and must
// be treated as read-only.
type Summary struct {
	Name        string `json:"name"`
	Fingerprint uint64 `json:"-"`

	NumParams    int `json:"numParams"`
	OwnInstrs    int `json:"ownInstrs"`
	NumBlocks    int `json:"numBlocks"`
	CondBranches int `json:"condBranches"` // CondBr-terminated blocks

	// Pure mirrors analysis.AnalyzeEffects exactly: no store to a global
	// and no output anywhere in the closure, and no extern callee.
	Pure        bool `json:"pure"`
	EmitsOutput bool `json:"emitsOutput"` // closure may write the output stream
	CallsExtern bool `json:"callsExtern"` // closure calls an undefined function

	// Transitive MOD/REF sets over the closure, sorted. Extern callees
	// contribute nothing: globals are module-private by construction.
	ReadsGlobals  []string `json:"readsGlobals,omitempty"`
	WritesGlobals []string `json:"writesGlobals,omitempty"`

	// ReadsBeforeWrite lists globals some path may load before the
	// closure's first store to them (the interprocedural use-before-init
	// facts); MustWriteGlobals lists globals stored on every terminating
	// path. NeverReturns marks functions with no statically terminating
	// path, whose must-write set is vacuously the universe.
	ReadsBeforeWrite []string `json:"readsBeforeWrite,omitempty"`
	MustWriteGlobals []string `json:"mustWriteGlobals,omitempty"`
	NeverReturns     bool     `json:"neverReturns,omitempty"`

	Return ConstVal       `json:"return"`
	Params []ParamSummary `json:"params,omitempty"`

	MaxLoopDepth  int  `json:"maxLoopDepth"`
	SelfRecursive bool `json:"selfRecursive"`
	InCycle       bool `json:"inCycle"`
	SCCSize       int  `json:"sccSize"`

	// UnboundedRecursion: every member of the function's SCC performs an
	// in-SCC call on every path to every reachable return, so no
	// invocation of any member terminates (lints.go states the argument).
	UnboundedRecursion bool `json:"unboundedRecursion"`

	// Overlay facts, recomputed per module.
	Exported         bool `json:"exported"`
	FanIn            int  `json:"fanIn"`            // candidate edges targeting the function
	FanOut           int  `json:"fanOut"`           // candidate edges it originates
	TransitiveInstrs int  `json:"transitiveInstrs"` // distinct reachable defined bodies, counted once

	// callDepths holds the loop depth of each call instruction in body
	// order; the overlay maps it to site IDs (which are not part of the
	// content key and so cannot live in the core directly).
	callDepths []int
}

// ModuleSummary is the result of Analyze: one Summary per defined
// function plus the per-site overlay indexes.
type ModuleSummary struct {
	Funcs []*Summary // module order

	mod       *ir.Module
	graph     *callgraph.Graph
	byName    map[string]*Summary
	siteDepth map[int]int // call site -> loop depth of the enclosing block
	sccs      [][]string  // SCC member names, bottom-up, discovery order
}

// Func returns the summary of the named function, or nil if it is not
// defined in the module.
func (ms *ModuleSummary) Func(name string) *Summary { return ms.byName[name] }

// SiteLoopDepth returns the loop-nest depth of the block containing the
// given call site in its caller (0 = not inside any loop).
func (ms *ModuleSummary) SiteLoopDepth(site int) int { return ms.siteDepth[site] }

// SCCs returns the strongly connected components of the defined-callee
// call graph, bottom-up (callees before callers), members in discovery
// order. The slices are shared; treat them as read-only.
func (ms *ModuleSummary) SCCs() [][]string { return ms.sccs }

// JSON renders every summary in module order — the deterministic wire
// and golden-test form.
func (ms *ModuleSummary) JSON() ([]byte, error) {
	return json.MarshalIndent(ms.Funcs, "", "  ")
}

// Analyze computes the summaries of every function defined in m. The
// graph must have been built from m after ir.Module.AssignSites. A nil
// cache recomputes every core from scratch (what -check runs); a shared
// cache may be used concurrently from any number of goroutines and
// modules.
func Analyze(m *ir.Module, g *callgraph.Graph, c *Cache) *ModuleSummary {
	ms := &ModuleSummary{
		mod:       m,
		graph:     g,
		byName:    make(map[string]*Summary, len(m.Funcs)),
		siteDepth: make(map[int]int),
	}
	fps := make(map[string]uint64, len(m.Funcs))
	for _, f := range m.Funcs {
		fps[f.Name] = f.Fingerprint()
	}
	keys := make(map[string]Key, len(m.Funcs))
	closures := make(map[string]map[string]bool, len(m.Funcs))
	for _, scc := range sccsOf(m) {
		names := make([]string, len(scc))
		for i, f := range scc {
			names[i] = f.Name
		}
		ms.sccs = append(ms.sccs, names)

		key := sccKey(scc, fps, keys)
		compute := func() []Summary { return summarizeSCC(scc, m, ms.byName) }
		var cores []Summary
		if c != nil {
			cores = c.getOrCompute(key, compute)
		} else {
			cores = compute()
		}

		// The whole SCC shares one transitive closure: members reach each
		// other, so each reaches exactly the members plus everything any
		// out-of-SCC callee reaches.
		clo := make(map[string]bool, len(scc))
		for _, f := range scc {
			clo[f.Name] = true
		}
		for _, f := range scc {
			for _, in := range f.Calls() {
				if clo[in.Callee] {
					continue
				}
				for n := range closures[in.Callee] {
					clo[n] = true
				}
			}
		}
		transitive := 0
		for n := range clo {
			transitive += m.Func(n).NumInstrs()
		}

		for i, f := range scc {
			s := new(Summary)
			*s = cores[i]
			s.Params = append([]ParamSummary(nil), s.Params...)
			s.Name = f.Name
			s.Fingerprint = fps[f.Name]
			s.TransitiveInstrs = transitive
			keys[f.Name] = key
			closures[f.Name] = clo
			ms.byName[f.Name] = s
		}
	}
	for _, f := range m.Funcs {
		ms.Funcs = append(ms.Funcs, ms.byName[f.Name])
	}
	ms.overlay()
	return ms
}

// overlay fills the module-dependent facts: export flags, fan-in/out,
// site loop depths, and incoming-argument constness.
func (ms *ModuleSummary) overlay() {
	for _, f := range ms.mod.Funcs {
		s := ms.byName[f.Name]
		s.Exported = f.Exported
		i := 0
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall {
					continue
				}
				ms.siteDepth[in.Site] = s.callDepths[i]
				i++
			}
		}
	}
	for i := range ms.graph.Edges {
		e := &ms.graph.Edges[i]
		ms.byName[e.Caller].FanOut++
		ms.byName[e.Callee].FanIn++
	}
	for _, f := range ms.mod.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall {
					continue
				}
				cs := ms.byName[in.Callee]
				if cs == nil {
					continue
				}
				for k, a := range in.Args {
					if k >= len(cs.Params) {
						break
					}
					v := top()
					if a.Def != nil && a.Def.Op == ir.OpConst {
						v = known(a.Def.Const)
					}
					cs.Params[k].Incoming = cs.Params[k].Incoming.join(v)
				}
			}
		}
	}
}

// sccsOf returns the strongly connected components of the defined-callee
// call graph, bottom-up: Tarjan emits an SCC only after every SCC it
// calls into, so callees always precede callers.
func sccsOf(m *ir.Module) [][]*ir.Function {
	index := make(map[string]int)
	lowlink := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]*ir.Function
	next := 0

	callees := func(f *ir.Function) []string {
		seen := make(map[string]bool)
		var out []string
		for _, in := range f.Calls() {
			if m.Func(in.Callee) != nil && !seen[in.Callee] {
				seen[in.Callee] = true
				out = append(out, in.Callee)
			}
		}
		return out
	}

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		lowlink[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range callees(m.Func(v)) {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if lowlink[w] < lowlink[v] {
					lowlink[v] = lowlink[w]
				}
			} else if onStack[w] && index[w] < lowlink[v] {
				lowlink[v] = index[w]
			}
		}
		if lowlink[v] == index[v] {
			var scc []*ir.Function
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, m.Func(w))
				if w == v {
					break
				}
			}
			// Tarjan pops in reverse discovery order; restore it.
			for i, j := 0, len(scc)-1; i < j; i, j = i+1, j-1 {
				scc[i], scc[j] = scc[j], scc[i]
			}
			sccs = append(sccs, scc)
		}
	}
	for _, f := range m.Funcs {
		if _, seen := index[f.Name]; !seen {
			strongconnect(f.Name)
		}
	}
	return sccs
}

// sccKey derives the content key of an SCC's core summaries. Member
// fingerprints pin each body (including the literal callee and global
// names it references — the linkage); binding every call, in body order,
// to either an in-SCC member index, the key of an already-summarized
// callee SCC, or an extern marker pins the resolution of those names.
// Equal keys therefore imply structurally identical closures, which
// makes the cached cores interchangeable across modules and runs.
func sccKey(scc []*ir.Function, fps map[string]uint64, keys map[string]Key) Key {
	inSCC := make(map[string]int, len(scc))
	for i, f := range scc {
		inSCC[f.Name] = i
	}
	h := ir.NewHasher()
	h.Str("optinline/interproc")
	h.Int(coreSchemaVersion)
	h.Int(len(scc))
	for _, f := range scc {
		h.Uint64(fps[f.Name])
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall {
					continue
				}
				if j, ok := inSCC[in.Callee]; ok {
					h.Byte(1)
					h.Int(j)
				} else if k, ok := keys[in.Callee]; ok {
					h.Byte(2)
					h.Uint64(k.Hi)
					h.Uint64(k.Lo)
				} else {
					h.Byte(0) // extern
				}
			}
		}
	}
	hi, lo := h.Sum128()
	return Key{Hi: hi, Lo: lo}
}

// memberFacts is the per-member direct-scan state feeding the fixpoint.
type memberFacts struct {
	directEffect bool // StoreG or Output anywhere in the body
	directOutput bool
	callsUndef   bool
	reads        map[string]bool // working transitive REF set
	writes       map[string]bool // working transitive MOD set
	callees      []string        // defined callees, deduped
	paramIns     map[*ir.Value][]*ir.Value
	reachable    map[*ir.Block]bool
	rets         []*ir.Value // operands of reachable rets, block order
	pure         bool
	output       bool
	extern       bool
	ret          ConstVal
	rbw          *rbwState
}

// summarizeSCC computes the cacheable cores of one SCC. byName supplies
// the finished summaries of every out-of-SCC callee (bottom-up order
// guarantees they exist). The fixpoint is optimistic and monotone in
// every lattice — purity can only fall, output/extern/MOD/REF/RBW can
// only grow, returns only climb — so it terminates.
func summarizeSCC(scc []*ir.Function, m *ir.Module, byName map[string]*Summary) []Summary {
	n := len(scc)
	inSCC := make(map[string]int, n)
	for i, f := range scc {
		inSCC[f.Name] = i
	}
	cores := make([]Summary, n)
	facts := make([]*memberFacts, n)

	for i, f := range scc {
		mf := &memberFacts{
			reads:     make(map[string]bool),
			writes:    make(map[string]bool),
			paramIns:  make(map[*ir.Value][]*ir.Value),
			reachable: f.Reachable(),
			pure:      true,
			ret:       ConstVal{}, // Bottom
		}
		seenCallee := make(map[string]bool)
		condBranches := 0
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpStoreG:
					mf.directEffect = true
					mf.writes[in.Global] = true
				case ir.OpOutput:
					mf.directEffect = true
					mf.directOutput = true
				case ir.OpLoadG:
					mf.reads[in.Global] = true
				case ir.OpCall:
					if m.Func(in.Callee) == nil {
						mf.callsUndef = true
					} else if !seenCallee[in.Callee] {
						seenCallee[in.Callee] = true
						mf.callees = append(mf.callees, in.Callee)
					}
				case ir.OpCondBr:
					condBranches++
				case ir.OpRet:
					if mf.reachable[b] {
						mf.rets = append(mf.rets, in.Args[0])
					}
				}
				// Branch-argument flow, from reachable blocks only: joins
				// over arguments that can never be passed would poison the
				// return lattice.
				if mf.reachable[b] {
					for _, s := range in.Succs {
						for k, a := range s.Args {
							p := s.Dest.Params[k]
							mf.paramIns[p] = append(mf.paramIns[p], a)
						}
					}
				}
			}
		}
		facts[i] = mf

		params := make([]ParamSummary, f.NumParams())
		used := usedValues(f)
		paramIdx := make(map[*ir.Value]int, len(params))
		for pi, p := range f.Entry().Params {
			params[pi].Dead = !used[p]
			paramIdx[p] = pi
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpCall, ir.OpStoreG, ir.OpOutput, ir.OpRet:
				default:
					continue
				}
				for _, a := range in.Args {
					pi, ok := paramIdx[a]
					if !ok {
						continue
					}
					switch in.Op {
					case ir.OpCall:
						params[pi].PassedOn = true
					case ir.OpStoreG, ir.OpOutput:
						params[pi].Escapes = true
					case ir.OpRet:
						params[pi].Returned = true
					}
				}
			}
		}

		selfRec := false
		for _, in := range f.Calls() {
			if in.Callee == f.Name {
				selfRec = true
				break
			}
		}
		cores[i] = Summary{
			NumParams:     f.NumParams(),
			OwnInstrs:     f.NumInstrs(),
			NumBlocks:     len(f.Blocks),
			CondBranches:  condBranches,
			Params:        params,
			SelfRecursive: selfRec,
			InCycle:       n > 1 || selfRec,
			SCCSize:       n,
		}
	}

	// Optimistic starts: pure, no output, no extern, direct MOD/REF,
	// Bottom returns; read-before-write starts empty with must-write at
	// the universe (rbwTop) for in-SCC callees.
	for i := range facts {
		facts[i].rbw = newRBWState()
	}
	calleeCore := func(name string) (*memberFacts, *Summary) {
		if j, ok := inSCC[name]; ok {
			return facts[j], nil
		}
		return nil, byName[name]
	}

	for changed := true; changed; {
		changed = false
		for i, f := range scc {
			mf := facts[i]

			pure := !mf.directEffect && !mf.callsUndef
			output := mf.directOutput
			extern := mf.callsUndef
			for _, c := range mf.callees {
				cf, cs := calleeCore(c)
				if cf != nil {
					pure = pure && cf.pure
					output = output || cf.output
					extern = extern || cf.extern
					for g := range cf.reads {
						if !mf.reads[g] {
							mf.reads[g] = true
							changed = true
						}
					}
					for g := range cf.writes {
						if !mf.writes[g] {
							mf.writes[g] = true
							changed = true
						}
					}
				} else {
					pure = pure && cs.Pure
					output = output || cs.EmitsOutput
					extern = extern || cs.CallsExtern
					for _, g := range cs.ReadsGlobals {
						if !mf.reads[g] {
							mf.reads[g] = true
							changed = true
						}
					}
					for _, g := range cs.WritesGlobals {
						if !mf.writes[g] {
							mf.writes[g] = true
							changed = true
						}
					}
				}
			}
			if pure != mf.pure || output != mf.output || extern != mf.extern {
				mf.pure, mf.output, mf.extern = pure, output, extern
				changed = true
			}

			calleeRet := func(name string) ConstVal {
				if cf, cs := calleeCore(name); cf != nil {
					return cf.ret
				} else if cs != nil {
					return cs.Return
				}
				return top() // extern calls produce some unknowable value
			}
			r := &resolver{
				memo:      make(map[*ir.Value]ConstVal),
				busy:      make(map[*ir.Value]bool),
				paramIns:  mf.paramIns,
				entry:     f.Entry(),
				calleeRet: calleeRet,
			}
			ret := ConstVal{}
			for _, v := range mf.rets {
				ret = ret.join(r.resolve(v))
			}
			if ret != mf.ret {
				mf.ret = ret
				changed = true
			}

			if rbwFunction(f, mf, calleeCore) {
				changed = true
			}
		}
	}

	for i := range scc {
		mf := facts[i]
		cores[i].Pure = mf.pure
		cores[i].EmitsOutput = mf.output
		cores[i].CallsExtern = mf.extern
		cores[i].ReadsGlobals = sortedKeys(mf.reads)
		cores[i].WritesGlobals = sortedKeys(mf.writes)
		cores[i].Return = mf.ret
		cores[i].ReadsBeforeWrite = sortedKeys(mf.rbw.mayReadFirst)
		cores[i].NeverReturns = mf.rbw.outTop
		if !mf.rbw.outTop {
			cores[i].MustWriteGlobals = sortedKeys(mf.rbw.mustWrite)
		}
	}

	// CFG-shape facts: loop depths and the unbounded-recursion property.
	unboundedAll := cores[0].InCycle
	for i, f := range scc {
		dom := f.Dominators()
		mf := facts[i]
		depths, maxDepth := loopDepths(f, dom, mf.reachable)
		cores[i].MaxLoopDepth = maxDepth
		var cd []int
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall {
					cd = append(cd, depths[b])
				}
			}
		}
		cores[i].callDepths = cd
		if unboundedAll && !dominatedByInSCCCall(f, inSCC, dom, mf.reachable) {
			unboundedAll = false
		}
	}
	if unboundedAll {
		for i := range cores {
			cores[i].UnboundedRecursion = true
		}
	}
	return cores
}

// resolver computes the constant-lattice value a given SSA value carries,
// chasing block-parameter joins and callee return summaries. Cycles
// through loop-carried block parameters conservatively break to Top.
type resolver struct {
	memo      map[*ir.Value]ConstVal
	busy      map[*ir.Value]bool
	paramIns  map[*ir.Value][]*ir.Value
	entry     *ir.Block
	calleeRet func(string) ConstVal
}

func (r *resolver) resolve(v *ir.Value) ConstVal {
	if c, ok := r.memo[v]; ok {
		return c
	}
	if r.busy[v] {
		return top()
	}
	r.busy[v] = true
	c := r.compute(v)
	delete(r.busy, v)
	r.memo[v] = c
	return c
}

func (r *resolver) compute(v *ir.Value) ConstVal {
	if v.Def == nil {
		if v.Parm == r.entry {
			return top() // function parameter: caller-controlled
		}
		ins := r.paramIns[v]
		if len(ins) == 0 {
			return top()
		}
		acc := ConstVal{}
		for _, in := range ins {
			acc = acc.join(r.resolve(in))
		}
		return acc
	}
	switch v.Def.Op {
	case ir.OpConst:
		return known(v.Def.Const)
	case ir.OpCall:
		return r.calleeRet(v.Def.Callee)
	case ir.OpUn:
		a := r.resolve(v.Def.Args[0])
		switch a.State {
		case ConstBottom:
			return a
		case ConstKnown:
			return known(evalUn(v.Def.UnOp, a.K))
		}
		return top()
	case ir.OpBin:
		a := r.resolve(v.Def.Args[0])
		b := r.resolve(v.Def.Args[1])
		if a.State == ConstBottom || b.State == ConstBottom {
			return ConstVal{} // an operand is never produced
		}
		if a.State == ConstKnown && b.State == ConstKnown {
			return known(evalBin(v.Def.BinOp, a.K, b.K))
		}
		return top()
	}
	return top() // LoadG and anything else
}

// evalBin mirrors the interpreter's total arithmetic semantics exactly
// (internal/interp): division and modulo by zero yield 0, shifts mask
// the count to 0..63, comparisons yield 0/1.
func evalBin(op ir.BinOp, a, b int64) int64 {
	switch op {
	case ir.Add:
		return a + b
	case ir.Sub:
		return a - b
	case ir.Mul:
		return a * b
	case ir.Div:
		if b == 0 {
			return 0
		}
		return a / b
	case ir.Mod:
		if b == 0 {
			return 0
		}
		return a % b
	case ir.And:
		return a & b
	case ir.Or:
		return a | b
	case ir.Xor:
		return a ^ b
	case ir.Shl:
		return a << (uint64(b) & 63)
	case ir.Shr:
		return a >> (uint64(b) & 63)
	case ir.Eq:
		return b2i(a == b)
	case ir.Ne:
		return b2i(a != b)
	case ir.Lt:
		return b2i(a < b)
	case ir.Le:
		return b2i(a <= b)
	case ir.Gt:
		return b2i(a > b)
	case ir.Ge:
		return b2i(a >= b)
	}
	return 0
}

func evalUn(op ir.UnOp, a int64) int64 {
	if op == ir.Neg {
		return -a
	}
	return b2i(a == 0)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func usedValues(f *ir.Function) map[*ir.Value]bool {
	used := make(map[*ir.Value]bool)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				used[a] = true
			}
			for _, s := range in.Succs {
				for _, a := range s.Args {
					used[a] = true
				}
			}
		}
	}
	return used
}

func sortedKeys(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
