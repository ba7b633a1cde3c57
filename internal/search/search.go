// Package search implements the paper's inlining search-space formulation
// and exhaustive optimal-inlining search (Sections 3 and 4).
//
// The naive space of a call graph with E candidate edges has 2^E inlining
// configurations. The recursively partitioned space exploits two facts:
// connected components are independent w.r.t. inlining, and a non-inlined
// bridge makes its two sides independent. The search is organized as an
// inlining tree (Algorithm 2): binary nodes assign {inline, no-inline} to a
// partition edge (contracting or deleting it in the graph), components
// nodes split independent components, and leaves are fully labeled
// configurations. Evaluation (Algorithm 1) propagates the best
// configuration from the leaves to the root; leaf and combine evaluations
// compile the module and measure its size.
//
// The tree is never materialized: construction and evaluation are fused
// into one lazy recursion, and space-size accounting (#leaves +
// #components-nodes) runs the same recursion without compiling.
package search

import (
	"encoding/binary"
	"math"
	"math/big"
	"runtime"
	"sync"

	"optinline/internal/callgraph"
	"optinline/internal/compile"
	"optinline/internal/graph"
)

// NaiveSpaceLog2 returns log2 of the naive space size: the number of
// candidate edges.
func NaiveSpaceLog2(g *callgraph.Graph) float64 {
	return float64(len(g.Edges))
}

// NaiveSpaceSize returns the exact naive space size 2^E.
func NaiveSpaceSize(g *callgraph.Graph) *big.Int {
	return new(big.Int).Lsh(big.NewInt(1), uint(len(g.Edges)))
}

// ComponentSpaceSize returns the space size when only connected components
// are exploited: sum over components of 2^|E_c| (Section 3.1).
func ComponentSpaceSize(g *callgraph.Graph) *big.Int {
	total := new(big.Int)
	for _, sub := range ComponentSubgraphs(g) {
		total.Add(total, new(big.Int).Lsh(big.NewInt(1), uint(len(sub.Edges))))
	}
	return total
}

// RecursiveSpaceSize counts the recursively partitioned space: the number
// of inlining-tree leaves plus components nodes. Counting stops early once
// the count exceeds limit (0 means no limit); the second result reports
// whether the limit was hit (the returned count is then a lower bound >
// limit).
func RecursiveSpaceSize(g *callgraph.Graph, limit uint64) (uint64, bool) {
	return countSpace(g.Undirected(), limit, selectPartitionEdge)
}

// RecursiveSpaceLog2 is a convenience: log2 of the (possibly capped) count.
func RecursiveSpaceLog2(g *callgraph.Graph, limit uint64) (float64, bool) {
	n, capped := RecursiveSpaceSize(g, limit)
	if n == 0 {
		return 0, capped
	}
	return math.Log2(float64(n)), capped
}

// SubspaceSize is RecursiveSpaceSize for one subgraph (typically a
// component from ComponentSubgraphs): the number of tree evaluations an
// OptimalCompletion over it costs.
func SubspaceSize(mg *graph.Multigraph, limit uint64) (uint64, bool) {
	return countSpace(mg, limit, selectPartitionEdge)
}

// countSpace counts the inlining tree rooted at mg under the partition-edge
// selector sel, without building it. The same subgraph recurs all over the
// tree — a component that neither removing nor contracting a partition
// edge touches appears under both branches — so exact counts are memoized
// for the duration of one call, keyed by the subgraph's edge list (every
// subgraph of one call shares mg's node numbering). Only counts that stayed
// under limit are stored: a capped count is a lower bound that depends on
// the order the recursion summed it in, while an uncapped count is the
// subtree's exact size, which the plain recursion would also return
// uncapped wherever the subgraph recurs. The subgraphs' edge lists are
// carved from a pooled scratch's stack.
func countSpace(mg *graph.Multigraph, limit uint64, sel selector) (uint64, bool) {
	s := scratchPool.Get().(*graph.Scratch)
	defer scratchPool.Put(s)
	sc := spaceCounter{limit: limit, sel: sel, memo: make(map[string]uint64), s: s, view: graph.Multigraph{N: mg.N}}
	return sc.count(mg.Edges)
}

type spaceCounter struct {
	limit uint64
	sel   selector
	memo  map[string]uint64 // edge-list key -> exact subtree count
	buf   []byte            // key scratch; lookups convert without allocating
	s     *graph.Scratch    // its stack holds the subgraphs' edge lists
	view  graph.Multigraph  // the subgraph sel is shown: a field, so handing it over allocates nothing
}

func (sc *spaceCounter) over(n uint64) bool { return sc.limit > 0 && n > sc.limit }

func (sc *spaceCounter) count(edges []graph.Edge) (uint64, bool) {
	if len(edges) == 0 {
		return 1, false
	}
	sc.buf = sc.buf[:0]
	for _, e := range edges {
		sc.buf = binary.AppendUvarint(sc.buf, uint64(e.ID))
		sc.buf = binary.AppendUvarint(sc.buf, uint64(e.U))
		sc.buf = binary.AppendUvarint(sc.buf, uint64(e.V))
	}
	if n, ok := sc.memo[string(sc.buf)]; ok {
		return n, false
	}
	key := string(sc.buf)
	m := sc.s.Mark()
	n, capped := sc.split(edges)
	sc.s.Pop(m)
	if !capped {
		sc.memo[key] = n
	}
	return n, capped
}

// split is one step of the plain recursion, recursing through count.
func (sc *spaceCounter) split(edges []graph.Edge) (uint64, bool) {
	if groups := sc.s.CarveComponents(edges); groups != nil {
		total := uint64(1) // the combining evaluation of the components node
		for _, g := range groups {
			n, capped := sc.count(g)
			total += n
			if capped || sc.over(total) {
				return total, true
			}
		}
		return total, false
	}
	sc.view.Edges = edges
	e := sc.sel(sc.s, &sc.view)
	mg := graph.Multigraph{Edges: edges}
	n1, c1 := sc.count(mg.AppendRemoved(sc.s.Carve(len(edges)), e.ID))
	if c1 || sc.over(n1) {
		return n1, true
	}
	n2, c2 := sc.count(mg.AppendContracted(sc.s.Carve(len(edges)), e.ID))
	total := n1 + n2
	return total, c2 || sc.over(total)
}

// edgeComponents splits the multigraph into one subgraph per connected
// component, or returns nil when its edges form fewer than two. Node
// numbering is preserved.
func edgeComponents(s *graph.Scratch, mg *graph.Multigraph) []graph.Multigraph {
	groups := s.Components(mg.Edges)
	if groups == nil {
		return nil
	}
	subs := make([]graph.Multigraph, len(groups))
	for i, es := range groups {
		subs[i] = graph.Multigraph{N: mg.N, Edges: es}
	}
	return subs
}

// scratchPool serves kernel scratch to SelectPartitionEdge's callers and to
// countSpace.
var scratchPool = sync.Pool{New: func() any { return new(graph.Scratch) }}

// SelectPartitionEdge implements the paper's partition-edge heuristic
// (Algorithm 2, SelectPartitionEdge):
//
//   - If bridges exist, pick the bridge adjacent to the least eccentric
//     vertex among bridge-adjacent vertices (prioritizing central bridges).
//   - Otherwise, take the node with the highest out-degree and among its
//     outgoing edges pick the one whose head has the least in-degree.
//
// Ties break toward lower node index / lower edge ID for determinism.
// Edge direction is taken from the stored (U=tail, V=head) orientation.
func SelectPartitionEdge(mg *graph.Multigraph) graph.Edge {
	s := scratchPool.Get().(*graph.Scratch)
	defer scratchPool.Put(s)
	return selectPartitionEdge(s, mg)
}

// selectPartitionEdge is SelectPartitionEdge on the caller's scratch. It
// reads the eccentricity of bridge endpoints only.
func selectPartitionEdge(s *graph.Scratch, mg *graph.Multigraph) graph.Edge {
	if len(mg.Edges) == 0 {
		panic("search: SelectPartitionEdge on empty graph")
	}
	if bridges := s.Bridges(mg.Edges); len(bridges) > 0 {
		best := bridges[0]
		bestEcc := minEcc(s, best)
		for _, b := range bridges[1:] {
			be := minEcc(s, b)
			if be < bestEcc || (be == bestEcc && b.ID < best.ID) {
				best, bestEcc = b, be
			}
		}
		return best
	}
	// Only edge tails have out-degree, and the highest is at least one.
	u, uOut := -1, 0
	for _, e := range mg.Edges {
		out, _ := s.Degree(e.U)
		if out > uOut || (out == uOut && e.U < u) {
			u, uOut = e.U, out
		}
	}
	best, bestIn := -1, 0
	for i, e := range mg.Edges {
		if e.U != u {
			continue
		}
		_, in := s.Degree(e.V)
		if best < 0 || in < bestIn || (in == bestIn && e.ID < mg.Edges[best].ID) {
			best, bestIn = i, in
		}
	}
	return mg.Edges[best]
}

func minEcc(s *graph.Scratch, e graph.Edge) int {
	return min(s.Eccentricity(e.U), s.Eccentricity(e.V))
}

// Result is the outcome of an optimal search.
type Result struct {
	Config      *callgraph.Config // an optimal configuration
	Size        int               // its .text size
	SpaceSize   uint64            // evaluations in the full recursive space
	Evaluations int64             // actual (uncached) compilations
}

// Options configures Optimal.
type Options struct {
	// Workers bounds the worker pool for concurrent subtree evaluations:
	// 0 selects GOMAXPROCS, negative forces the sequential recursion, and
	// any positive value is used as given. Results are bit-identical across
	// worker counts: sibling subtrees are merged in deterministic order and
	// the compile caches are single-flight, so even evaluation counters do
	// not depend on scheduling.
	Workers int
	// MaxSpace aborts the search (returns ok=false) if the recursive space
	// exceeds this many evaluations. 0 means no bound.
	MaxSpace uint64
}

// Optimal searches the recursively partitioned space and returns an optimal
// configuration for the compiler's module and target. ok is false when
// MaxSpace is exceeded. The search is exhaustive over the recursive space:
// it evaluates every leaf and components node of the inlining tree, on a
// checked compiler and a default one alike.
func Optimal(c *compile.Compiler, opts Options) (Result, bool) {
	g := c.Graph()
	space, capped := RecursiveSpaceSize(g, opts.MaxSpace)
	if opts.MaxSpace > 0 && (capped || space > opts.MaxSpace) {
		return Result{SpaceSize: space}, false
	}
	cfg, size := newEvaluator(c, opts).run(g.Undirected(), callgraph.NewConfig())
	return Result{
		Config:      cfg,
		Size:        size,
		SpaceSize:   space,
		Evaluations: c.Evaluations(),
	}, true
}

// OptimalCompletion searches the recursive space of one subgraph (typically
// a component from ComponentSubgraphs) with every label outside it fixed by
// decided, and returns the best full configuration and its whole-module
// size. The autotuner's exact-component polish is built on it: component
// optima are independent of labels outside the component (the paper's
// independence theorem), so re-solving one component under a tuned context
// yields the true component optimum given the rest.
func OptimalCompletion(c *compile.Compiler, mg *graph.Multigraph, decided *callgraph.Config, opts Options) (*callgraph.Config, int) {
	return newEvaluator(c, opts).run(mg, decided)
}

// ComponentSubgraphs returns the edge-bearing connected components of the
// candidate graph's undirected view, ready for OptimalCompletion.
func ComponentSubgraphs(g *callgraph.Graph) []*graph.Multigraph {
	mg := g.Undirected()
	if len(mg.Edges) == 0 {
		return nil
	}
	var s graph.Scratch
	subs := edgeComponents(&s, mg)
	if subs == nil {
		return []*graph.Multigraph{mg}
	}
	out := make([]*graph.Multigraph, len(subs))
	for i := range subs {
		out[i] = &subs[i]
	}
	return out
}

type evaluator struct {
	c      *compile.Compiler
	tokens chan struct{} // nil means sequential
}

func newEvaluator(c *compile.Compiler, opts Options) *evaluator {
	workers := opts.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ev := &evaluator{c: c}
	if workers > 1 {
		ev.tokens = make(chan struct{}, workers)
	}
	return ev
}

// labels is one inlining-tree node's decided labels together with their
// size handle, derived on first use from the handle of the nearest
// ancestor with fewer labels. Each node differs from its parent by the
// labels it adds — the remove branch keeps its parent's labels (and shares
// its labels value), the contract branch adds its partition edge, a
// components node's combine adds what its components chose — so a derived
// handle reprices only the closures those labels dirty.
//
// Derivation is lazy: a leaf or combine whose configuration the
// whole-config cache already holds never builds a handle, so a repeated
// search touches neither the content cache nor the delta engine. It runs
// under a sync.Once, which concurrent subtrees may both wait on; a
// derivation waits only on content-cache slots, never on another tree
// node, so no waiter cycle can form.
//
// A labels value is walker memory: the configuration, the handle and its
// overlay are rewritten in place each time the walker hands it out again.
type labels struct {
	cfg    callgraph.Config // not mutated while the node is in use
	parent *labels          // nil at the clean-slate root
	adds   []int            // the labels cfg adds to parent's

	once   sync.Once
	handle *compile.Sized // nil in checked mode
	memory compile.Sized  // the handle's
}

// sized returns the node's handle, deriving its ancestors' first. A
// derivation from a handle that failed to compile prices its
// configuration from scratch.
func (l *labels) sized(c *compile.Compiler) *compile.Sized {
	l.once.Do(func() {
		var base *compile.Sized
		if l.parent != nil {
			base = l.parent.sized(c)
		}
		l.handle = c.Derive(&l.memory, base, &l.cfg, l.adds)
	})
	return l.handle
}

// sizeOf prices a leaf's or combine's configuration, which l holds: one
// whole-config cache request, which derives l's handle chain only on a
// miss. In checked mode it is the whole-configuration path.
func (ev *evaluator) sizeOf(l *labels) int {
	return ev.c.SizeVia(&l.cfg, func() *compile.Sized { return l.sized(ev.c) })
}

// answer is a child subtree's result: its best configuration and size. A
// child spawned on a goroutine of its own writes them there, and its
// parent waits on pending before reading them.
type answer struct {
	cfg     callgraph.Config
	size    int
	pending sync.WaitGroup
}

// walker is one goroutine's memory for the tree walk, used in LIFO order:
// kernel scratch whose stack holds the subtrees' edge lists, and the tree
// nodes' labels and answers. A node takes what it needs on entry and gives
// it back on return, so a walk allocates only where it reaches deeper or
// wider than the walks before it on the same walker. A search takes one
// walker from walkerPool, and so does each subtree it spawns.
type walker struct {
	s       graph.Scratch
	labels  pile[labels]
	answers pile[answer]
}

var walkerPool = sync.Pool{New: func() any { return new(walker) }}

// pile hands out reusable values in LIFO order.
type pile[T any] struct {
	items []*T
	n     int // items[:n] are in use
}

// take hands out the next n values.
func (p *pile[T]) take(n int) []*T {
	for len(p.items) < p.n+n {
		p.items = append(p.items, new(T))
	}
	p.n += n
	return p.items[p.n-n : p.n]
}

// walkMark is a height of a walker's memory.
type walkMark struct {
	s               graph.Mark
	labels, answers int
}

func (w *walker) mark() walkMark { return walkMark{w.s.Mark(), w.labels.n, w.answers.n} }

// pop gives back everything taken since mark returned m.
func (w *walker) pop(m walkMark) {
	w.s.Pop(m.s)
	w.labels.n, w.answers.n = m.labels, m.answers
}

// node takes a tree node below parent, labeled as parent is (the clean
// slate when parent is nil) until its caller adds labels.
func (w *walker) node(parent *labels) *labels {
	l := w.labels.take(1)[0]
	l.parent, l.adds, l.handle, l.once = parent, l.adds[:0], nil, sync.Once{}
	if parent != nil {
		l.cfg.CopyFrom(&parent.cfg)
	} else {
		l.cfg.CopyFrom(callgraph.NewConfig())
	}
	return l
}

// run evaluates the inlining tree rooted at mg on a pooled walker and
// returns a copy of its best configuration, which is the caller's. The
// handle chain starts at the clean slate; labels decided outside mg are
// one step from it, so a completion compiles the closures that pricing
// each leaf from the clean slate would. decided is only read.
func (ev *evaluator) run(mg *graph.Multigraph, decided *callgraph.Config) (*callgraph.Config, int) {
	w := walkerPool.Get().(*walker)
	defer walkerPool.Put(w)
	m := w.mark()
	defer w.pop(m)
	at := w.node(nil)
	if decided.InlineCount() > 0 {
		at = w.node(at)
		at.cfg.CopyFrom(decided)
		at.adds = decided.AppendInlineSites(at.adds)
	}
	best := w.answers.take(1)[0]
	size := ev.eval(w, *mg, at, &best.cfg)
	return best.cfg.Clone(), size
}

// eval is Algorithm 1 fused with Algorithm 2: it lazily builds and
// evaluates the inlining tree rooted at the given graph state, writes the
// subtree's best configuration into best and returns its size. at holds
// the labels assigned on the path from the root. Everything a node needs —
// its children's edge lists, labels and answers — is taken from w on entry
// and given back before it returns; only a child that wins a worker token
// costs an allocation, for its goroutine.
func (ev *evaluator) eval(w *walker, mg graph.Multigraph, at *labels, best *callgraph.Config) int {
	if len(mg.Edges) == 0 {
		// InliningTreeLeaf: a fully labeled (partial w.r.t. siblings)
		// configuration; evaluate it.
		best.CopyFrom(&at.cfg)
		return ev.sizeOf(at)
	}
	m := w.mark()
	defer w.pop(m)
	if groups := w.s.CarveComponents(mg.Edges); groups != nil {
		// InliningTreeComponentsNode: independent components explored
		// independently, then combined with one extra evaluation.
		answers := w.answers.take(len(groups))
		if ev.tokens == nil {
			for i, a := range answers {
				a.size = ev.eval(w, graph.Multigraph{N: mg.N, Edges: groups[i]}, at, &a.cfg)
			}
		} else {
			for i := 1; i < len(groups); i++ {
				ev.spawnOrEval(w, graph.Multigraph{N: mg.N, Edges: groups[i]}, at, answers[i])
			}
			answers[0].size = ev.eval(w, graph.Multigraph{N: mg.N, Edges: groups[0]}, at, &answers[0].cfg)
			for _, a := range answers[1:] {
				a.pending.Wait()
			}
		}
		combine := w.node(at)
		for _, a := range answers {
			combine.cfg.Merge(&a.cfg)
		}
		combine.adds = combine.cfg.AppendDiffSites(combine.adds, &at.cfg)
		best.CopyFrom(&combine.cfg)
		return ev.sizeOf(combine)
	}
	// InliningTreeBinaryNode: label the partition edge both ways. The
	// remove branch evaluates into best, the contract branch into an
	// answer of its own, and the remove branch wins ties.
	e := selectPartitionEdge(&w.s, &mg)
	removed := graph.Multigraph{N: mg.N, Edges: mg.AppendRemoved(w.s.Carve(len(mg.Edges)), e.ID)}
	contracted := graph.Multigraph{N: mg.N, Edges: mg.AppendContracted(w.s.Carve(len(mg.Edges)), e.ID)}
	inl := w.node(at)
	inl.cfg.Set(e.ID, true)
	inl.adds = append(inl.adds, e.ID)
	other := w.answers.take(1)[0]
	var size int
	if ev.tokens == nil {
		size = ev.eval(w, removed, at, best)
		other.size = ev.eval(w, contracted, inl, &other.cfg)
	} else {
		ev.spawnOrEval(w, contracted, inl, other)
		size = ev.eval(w, removed, at, best)
		other.pending.Wait()
	}
	if other.size < size {
		best.CopyFrom(&other.cfg)
		return other.size
	}
	return size
}

// spawnOrEval evaluates a child subtree into a: on a goroutine of its own
// when a worker token is free, after which a.pending counts it until it is
// done, or else on w.
//
// The pool is fire-and-forget by design: a child either grabs a token and
// runs on a fresh goroutine or runs inline on the caller, so a parent
// blocked on children always has at least one child running on its own
// stack — including when every token holder is parked on a single-flight
// cache slot (the solver of that slot is itself running inline somewhere).
// A FIFO work queue would deadlock exactly there.
func (ev *evaluator) spawnOrEval(w *walker, mg graph.Multigraph, at *labels, a *answer) {
	select {
	case ev.tokens <- struct{}{}:
		a.pending.Add(1)
		go ev.spawned(mg, at, a)
	default:
		a.size = ev.eval(w, mg, at, &a.cfg)
	}
}

// spawned evaluates a subtree on a goroutine of its own, on a pooled
// walker. Of its parent's walker it reads only mg's edge list, which the
// parent carved before spawning it and keeps until a.pending is done, and
// the labels of at and its ancestors.
func (ev *evaluator) spawned(mg graph.Multigraph, at *labels, a *answer) {
	w := walkerPool.Get().(*walker)
	a.size = ev.eval(w, mg, at, &a.cfg)
	walkerPool.Put(w)
	<-ev.tokens
	a.pending.Done()
}

// NaiveOptimal enumerates the full 2^E space; usable only for tiny graphs
// and used by tests to certify that the recursive search is exact.
func NaiveOptimal(c *compile.Compiler) (*callgraph.Config, int) {
	sites := c.Graph().Sites()
	if len(sites) > 22 {
		panic("search: NaiveOptimal on a graph with more than 22 edges")
	}
	best := callgraph.NewConfig()
	bestSize := c.Size(best)
	for mask := uint64(1); mask < 1<<uint(len(sites)); mask++ {
		cfg := callgraph.NewConfig()
		for i, s := range sites {
			if mask&(1<<uint(i)) != 0 {
				cfg.Set(s, true)
			}
		}
		if size := c.Size(cfg); size < bestSize {
			best, bestSize = cfg, size
		}
	}
	return best, bestSize
}
