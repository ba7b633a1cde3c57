package compile

import (
	"sort"
	"sync"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/inline"
	"optinline/internal/ir"
	"optinline/internal/opt"
)

// This file implements the memoized evaluation engine: instead of running
// the full pipeline over the whole module for every configuration, each
// function's post-pipeline encoded size is cached per inline closure. The
// entry lives in the content-addressed FnCache (fncache.go) under a
// module-independent structural key (closureKey below).
//
// The inline closure of a function f under a configuration is the smallest
// set of functions containing f that is closed under "callee of an
// inline-labeled site owned by a member". Only those labels can reach f's
// final code:
//
//   - a non-inlined site stays a plain call and never changes the caller's
//     body, so only inline-labeled sites matter;
//   - inline.Apply is a FIFO work queue seeded by scanning functions in
//     module order; an expansion mutates only the function containing the
//     site and enqueues only sites inside that function, so restricting the
//     module to f's closure (kept in module order) yields exactly the
//     projection of the global event sequence that touches the closure —
//     f's expanded body is bit-identical to the whole-module run;
//   - the optimization pipeline is function-local (package opt);
//   - dead-function elimination is label-based and decided analytically
//     from the labels of the callee's incoming edges (CalleesAllInline), so
//     survival needs no compilation at all;
//   - the size metric is additive per function (package codegen).
//
// Size(cfg) is therefore the sum of cached per-function sizes over the
// surviving functions. A configuration that differs from an evaluated one
// in a few labels recompiles only the functions whose closures contain a
// flipped site — during the recursive search, sibling subtrees share the
// rest. The one deliberate approximation is the inliner's global growth
// bound (inline.DefaultMaxInstrs): the memoized path applies it per
// closure rather than module-wide, so the two paths can diverge only on
// configurations that trip the 4M-instruction safety valve, which the
// corpus never approaches (and both paths still return InfSize for any
// closure that trips it alone).

// funcInfo is the per-function slice of the candidate graph.
type funcInfo struct {
	name     string
	idx      int    // module order
	fp       uint64 // ir.Function.Fingerprint of the base body
	exported bool
	sites    []int // candidate sites owned (caller side), ascending

	// callSites lists the site ID of every call instruction in the base
	// body, in block/instruction order — including non-candidate calls
	// (recursive, unknown callee). The content-addressed cache key streams
	// this sequence to capture site identity structure (which calls are
	// coupled copies of one another) without depending on the module's
	// absolute site numbering; see closureKey.
	callSites []int

	// calleeNames is parallel to callSites: the callee name referenced by
	// each call instruction. closureKey canonicalizes these names (together
	// with the members' own names) to bind each member's name to its body
	// without making the key depend on the literal spelling of names that
	// are never referenced.
	calleeNames []string

	// Incoming-edge view, for deciding label-based DFE locally: the
	// candidate sites targeting this function, and whether any of them is
	// recursive (a recursive incoming edge pins the function alive).
	inSites []int
	recIn   bool
}

// memoState holds the per-function site ownership and the inverse
// dependency index the delta engine prices toggles with.
type memoState struct {
	funcs      []*funcInfo // module order
	siteCallee map[int]*funcInfo
	siteCaller map[int]*funcInfo

	// ancestors[i] lists (ascending, including i itself) the indices of
	// functions that can reach function i through candidate call edges.
	// A function f's inline closure can contain a site s only if f reaches
	// s's owner, so ancestors[caller(s)] is exactly the set of functions
	// whose memo key can change when s's label flips — the dirty set.
	// Built lazily on the first delta evaluation: clients that never price
	// incrementally (checked mode, Build-only tools) pay nothing for it.
	rev       [][]int32 // callee idx -> caller idxs
	ancOnce   sync.Once
	ancestors [][]int32
}

// buildMemo indexes site ownership per function.
func buildMemo(base *ir.Module, g *callgraph.Graph) *memoState {
	ms := &memoState{
		siteCallee: make(map[int]*funcInfo),
		siteCaller: make(map[int]*funcInfo),
	}
	byName := make(map[string]*funcInfo, len(base.Funcs))
	for i, f := range base.Funcs {
		fi := &funcInfo{name: f.Name, idx: i, fp: f.Fingerprint(), exported: f.Exported}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall {
					fi.callSites = append(fi.callSites, in.Site)
					fi.calleeNames = append(fi.calleeNames, in.Callee)
				}
			}
		}
		ms.funcs = append(ms.funcs, fi)
		byName[f.Name] = fi
	}
	rev := make([][]int32, len(ms.funcs))
	for _, e := range g.Edges {
		caller, callee := byName[e.Caller], byName[e.Callee]
		caller.sites = append(caller.sites, e.Site)
		callee.inSites = append(callee.inSites, e.Site)
		if e.Recursive {
			callee.recIn = true
		}
		ms.siteCallee[e.Site] = callee
		ms.siteCaller[e.Site] = caller
		rev[callee.idx] = append(rev[callee.idx], int32(caller.idx))
	}
	for _, fi := range ms.funcs {
		sort.Ints(fi.sites)
		sort.Ints(fi.inSites)
	}
	ms.rev = rev
	return ms
}

// ensureAncestors builds the inverse reachability index on first use.
func (ms *memoState) ensureAncestors() {
	ms.ancOnce.Do(func() { ms.ancestors = buildAncestors(ms.rev) })
}

// buildAncestors computes, per function, every function that can reach it
// through candidate call edges (reflexive). One reverse BFS per function;
// module call graphs are small, so the quadratic worst case is irrelevant.
func buildAncestors(rev [][]int32) [][]int32 {
	n := len(rev)
	out := make([][]int32, n)
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	for v := 0; v < n; v++ {
		anc := []int32{int32(v)}
		mark[v] = v
		for i := 0; i < len(anc); i++ {
			for _, u := range rev[anc[i]] {
				if mark[u] != v {
					mark[u] = v
					anc = append(anc, u)
				}
			}
		}
		sort.Slice(anc, func(i, j int) bool { return anc[i] < anc[j] })
		out[v] = anc
	}
	return out
}

// dirty returns (ascending, deduplicated) the indices of every function
// whose contribution to the total size can change when the given sites
// flip: the toggled sites' owners' ancestors — whose closures may gain or
// lose the site — plus the callees, whose DFE survival is decided by the
// labels of exactly these incoming edges.
func (ms *memoState) dirty(toggles []int) []int32 {
	ms.ensureAncestors()
	seen := make([]bool, len(ms.funcs))
	var out []int32
	add := func(i int32) {
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	for _, s := range toggles {
		caller, ok := ms.siteCaller[s]
		if !ok {
			continue // not a candidate site: flipping it is a no-op
		}
		for _, a := range ms.ancestors[caller.idx] {
			add(a)
		}
		add(int32(ms.siteCallee[s].idx))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// alive is the label-based DFE predicate of one function, decided locally
// from its incoming candidate edges: it matches callgraph.CalleesAllInline
// combined with RemoveDeadFunctions' exported check, without building the
// whole-module maps.
func (ms *memoState) alive(fi *funcInfo, cfg *callgraph.Config) bool {
	if fi.exported || fi.recIn || len(fi.inSites) == 0 {
		return true
	}
	for _, s := range fi.inSites {
		if !cfg.Inline(s) {
			return true
		}
	}
	return false
}

// closure returns f's inline closure under cfg, in module order.
func (ms *memoState) closure(f *funcInfo, cfg *callgraph.Config) []*funcInfo {
	members := []*funcInfo{f}
	seen := map[*funcInfo]bool{f: true}
	for i := 0; i < len(members); i++ {
		for _, s := range members[i].sites {
			if !cfg.Inline(s) {
				continue
			}
			if callee := ms.siteCallee[s]; !seen[callee] {
				seen[callee] = true
				members = append(members, callee)
			}
		}
	}
	// Module order matters: inline.Apply seeds its work queue by scanning
	// functions in module order, and with recursion trails the expansion
	// fixpoint depends on that order. Keeping it makes the sub-module
	// queue an exact projection of the whole-module one.
	sort.Slice(members, func(i, j int) bool { return members[i].idx < members[j].idx })
	return members
}

// measureMemo is the memoized equivalent of one whole-module pipeline run:
// label-based DFE decides survival analytically, and each survivor's size
// comes from the per-closure cache.
func (c *Compiler) measureMemo(cfg *callgraph.Config) int {
	total := 0
	for _, fi := range c.memo.funcs {
		if !c.memo.alive(fi, cfg) {
			continue
		}
		s := c.funcSize(fi, cfg)
		if s == InfSize {
			c.errors.Add(1)
			return InfSize
		}
		total += s
	}
	return total
}

// funcSize returns fi's post-pipeline encoded size under cfg, computing it
// at most once per closure configuration (single-flight, so concurrent
// search workers requesting the same closure share one compilation). The
// entry lives in the shared FnCache under a content-derived key, so it is
// found by any compiler whose closure has the same structure — other
// configurations, other corpus files, other runs.
func (c *Compiler) funcSize(fi *funcInfo, cfg *callgraph.Config) int {
	members := c.memo.closure(fi, cfg)
	key := c.closureKey(fi, members, cfg)
	return c.fncache.sizeOf(key, &c.funcHits, &c.funcMisses, func() int {
		return c.compileClosure(fi, members, cfg)
	})
}

// canonPool recycles the site-canonicalization map closureKey fills and
// clears on every call; key derivation sits on the hit path of every memo
// lookup, so it must not allocate.
var canonPool = sync.Pool{
	New: func() any { return make(map[int]int, 32) },
}

// nameCanonPool recycles closureKey's name-canonicalization map, for the
// same reason.
var nameCanonPool = sync.Pool{
	New: func() any { return make(map[string]int, 32) },
}

// closureKey derives the content-addressed cache key of fi's compilation
// under cfg. It must have the property that equal keys imply equal
// compileClosure results, with no reference to this module's identity. The
// key streams:
//
//   - a schema string (fnKeyVersion, PipelineVersion) and the codegen
//     target;
//   - the index of fi among the closure's members, since compileClosure
//     measures only fi after inlining the whole closure;
//   - per member, in module order: the canonical index of its own name
//     (first-occurrence order over every callee reference in the closure,
//     then over the member names themselves), its structural fingerprint,
//     then per call instruction in body order the site's canonical index
//     (first occurrence order across the whole stream) and its label bit.
//
// Why this is sound: compileClosure's result is a pure function of the
// closure's member bodies (in module order), the name→body binding that
// resolves calls to members, the site labels inside it, and site
// *identity* — inline.Apply consults sites only through cfg.Inline and
// through trail-equality when detecting recursive re-expansion, so any
// site renumbering that preserves which call instructions share an ID
// yields a bit-identical expansion. Mapping IDs to first-occurrence
// canonical indices preserves exactly those equivalence classes.
//
// Names need the same treatment. A member's own name is deliberately
// absent from its fingerprint (ir/fingerprint.go), so the fingerprint
// sequence alone cannot distinguish two closures that permute which name
// binds to which body: with f calling g and h, {g→B1, h→B2} in one module
// and {g→B2, h→B1} (module order permuted to compensate) in another
// stream identical fingerprints yet inline different bodies at the same
// sites. The canonical own-name indices restore the binding: equal member
// fingerprints pin the bodies *including their literal callee-name
// strings* (callee and global names ARE hashed inside bodies — they are
// the linkage that decides what inlines), so the first-occurrence classes
// of callee references coincide, and each member's index then says which
// referenced name — if any — its body is bound to. A member whose name is
// never referenced inside the closure gets a fresh index past the callee
// classes; its literal spelling cannot affect inlining or codegen (encoded
// sizes are name-independent: codegen prices calls and global ops by
// shape, not name), so fresh indices deliberately avoid splitting
// otherwise-identical leaf closures. The base module's unreferenced
// globals don't affect function sizes, so they are not part of the key.
func (c *Compiler) closureKey(fi *funcInfo, members []*funcInfo, cfg *callgraph.Config) FnKey {
	h := ir.NewHasher()
	h.Str(fnCacheSchema)
	h.Byte(byte(c.target))
	for i, m := range members {
		if m == fi {
			h.Int(i)
			break
		}
	}
	names := nameCanonPool.Get().(map[string]int)
	for _, m := range members {
		for _, cn := range m.calleeNames {
			if _, ok := names[cn]; !ok {
				names[cn] = len(names)
			}
		}
	}
	canon := canonPool.Get().(map[int]int)
	for _, m := range members {
		ni, ok := names[m.name]
		if !ok {
			ni = len(names)
			names[m.name] = ni
		}
		h.Int(ni)
		h.Uint64(m.fp)
		h.Int(len(m.callSites))
		for _, s := range m.callSites {
			ci, ok := canon[s]
			if !ok {
				ci = len(canon)
				canon[s] = ci
			}
			h.Int(ci)
			if cfg.Inline(s) {
				h.Byte(1)
			} else {
				h.Byte(0)
			}
		}
	}
	clear(canon)
	canonPool.Put(canon)
	clear(names)
	nameCanonPool.Put(names)
	hi, lo := h.Sum128()
	return FnKey{Hi: hi, Lo: lo}
}

// compileClosure runs inlining over just the closure's functions and
// optimizes + measures the one function of interest.
func (c *Compiler) compileClosure(fi *funcInfo, members []*funcInfo, cfg *callgraph.Config) int {
	a := arenaPool.Get().(*ir.Arena)
	defer releaseArena(a)
	fn := c.optimizeClosure(fi, members, cfg, a)
	if fn == nil {
		return InfSize
	}
	return codegen.FunctionSize(fn, c.target)
}

// arenaPool recycles the arenas closure compiles clone into. Nothing keeps
// a closure's optimized body: the content cache keeps its size and the
// cycle pricer its cost and size, so each compile hands its arena back
// once it has read them.
var arenaPool = sync.Pool{New: func() any { return new(ir.Arena) }}

func releaseArena(a *ir.Arena) {
	a.Release()
	arenaPool.Put(a)
}

// optimizeClosure inlines over a module of just the closure's functions
// and returns fi's optimized body, or nil if the inliner's growth bound
// tripped. Only the members inline.Apply can write are cloned: fi, and
// each member with an inline-labeled call of its own. Apply expands only
// calls it finds labeled in a function's body, and copies a callee's body
// before splicing it, so every other member is only read and the shared
// base function serves as is. Every copy, of a member or of a callee, is
// carved from a (fresh when a is nil), so the body lives until a's next
// Release.
func (c *Compiler) optimizeClosure(fi *funcInfo, members []*funcInfo, cfg *callgraph.Config, a *ir.Arena) *ir.Function {
	sub := ir.NewModule(c.base.Name)
	sub.Globals = append(sub.Globals, c.base.Globals...)
	for _, m := range members {
		f := c.base.Func(m.name)
		if m == fi || m.inlinesAny(cfg) {
			f = f.CloneIn(a)
		}
		sub.AddFunc(f)
	}
	if err := inline.Apply(sub, cfg, inline.Options{Arena: a}); err != nil {
		return nil
	}
	fn := sub.Func(fi.name)
	opt.Function(fn)
	return fn
}

// inlinesAny reports whether any call in fi's base body is labeled inline.
func (fi *funcInfo) inlinesAny(cfg *callgraph.Config) bool {
	for _, s := range fi.callSites {
		if cfg.Inline(s) {
			return true
		}
	}
	return false
}
