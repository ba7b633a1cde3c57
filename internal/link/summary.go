package link

import (
	"strings"
	"sync"
	"sync/atomic"

	"optinline/internal/ir"
)

// fnSummary is everything the link plan needs to know about one function
// without holding its body: its identity, linkage, and the ordered list of
// call targets (one entry per OpCall in block/instruction walk order — the
// same order AssignSites numbers call sites in, which is what lets the plan
// renumber sites without materializing the merged module).
type fnSummary struct {
	name     string
	exported bool
	fp       uint64   // ir.Function.Fingerprint (own-name-free)
	calls    []string // callee name per OpCall, walk order
	globals  []string // distinct global names referenced, first-use order
}

// tuSummary is the link-relevant summary of one translation unit.
type tuSummary struct {
	modName string
	fp      uint64 // ir.Module.Fingerprint (site- and name-sensitive)
	globals []string
	funcs   []fnSummary
	byName  map[string]int // function name -> index in funcs
}

// SummaryCache caches per-TU link summaries by module content and shares
// per-function call lists by function content, following the pattern of the
// interprocedural summary cache (internal/analysis/interproc): cache entries
// are keyed by ir.Fingerprint content keys, so structurally identical inputs
// — the same TU linked again, or structural twin functions anywhere in a
// corpus — summarize once. Summarization is a pure function of the module,
// so concurrent duplicate computation is benign; the cache trades the
// single-flight machinery of the compile caches for simplicity because a
// summary costs one walk of the IR, not a compilation.
//
// A daemon serving edits links a new unit version with every patch, so the
// cache keeps at most maxSummaries module summaries and maxShapes function
// shapes, dropping those unused the longest. Eviction costs at most a
// recompute: linkers and sessions keep pointers to the summaries they use.
type SummaryCache struct {
	mu   sync.Mutex
	mods generations[uint64, *tuSummary]
	fns  generations[uint64, fnShape] // Function.Fingerprint -> shared shape

	hits   atomic.Int64
	misses atomic.Int64
}

// The cache bounds. linked-x30, the largest linked profile, has 60 units
// and 10,243 distinct function shapes; the half of each bound that always
// stays resident holds them all.
const (
	maxSummaries = 256
	maxShapes    = 1 << 15
)

// NewSummaryCache returns an empty cache.
func NewSummaryCache() *SummaryCache {
	return &SummaryCache{
		mods: newGenerations[uint64, *tuSummary](maxSummaries),
		fns:  newGenerations[uint64, fnShape](maxShapes),
	}
}

// generations is a map bounded to limit entries in two generations of at
// most limit/2 each. Entries enter the current generation, and a lookup
// moves an entry it finds in the previous one there; when the current
// generation is full it becomes the previous one and the previous one is
// dropped. So every entry used within the last limit/2 insertions stays,
// and a dropped entry went a whole generation unused. Not safe for
// concurrent use.
type generations[K comparable, V any] struct {
	half      int
	cur, prev map[K]V
}

func newGenerations[K comparable, V any](limit int) generations[K, V] {
	return generations[K, V]{half: max(1, limit/2), cur: make(map[K]V)}
}

func (g *generations[K, V]) get(k K) (V, bool) {
	if v, ok := g.cur[k]; ok {
		return v, true
	}
	v, ok := g.prev[k]
	if ok {
		delete(g.prev, k)
		g.put(k, v)
	}
	return v, ok
}

func (g *generations[K, V]) put(k K, v V) {
	if _, ok := g.cur[k]; !ok && len(g.cur) >= g.half {
		g.prev, g.cur = g.cur, make(map[K]V)
	}
	g.cur[k] = v
}

func (g *generations[K, V]) len() int { return len(g.cur) + len(g.prev) }

// defaultSummaries is the package-wide cache used when Options.Summaries is
// nil, so repeated links of the same TUs (checked cold-link queries,
// benchmarks) summarize each unit once per process.
var defaultSummaries = NewSummaryCache()

// Hits and Misses report module-level cache traffic.
func (c *SummaryCache) Hits() int64   { return c.hits.Load() }
func (c *SummaryCache) Misses() int64 { return c.misses.Load() }

// summarize returns the content-cached summary of m.
func (c *SummaryCache) summarize(m *ir.Module) *tuSummary {
	key := m.Fingerprint()
	c.mu.Lock()
	if s, ok := c.mods.get(key); ok {
		c.mu.Unlock()
		c.hits.Add(1)
		return s
	}
	c.mu.Unlock()
	c.misses.Add(1)
	s := c.build(m, key)
	c.mu.Lock()
	c.mods.put(key, s)
	c.mu.Unlock()
	return s
}

// fnShape is the content-shared part of a function summary: equal
// Function.Fingerprint values imply equal opcode structure including callee
// and global name sequences, so structural twins share one shape.
type fnShape struct {
	calls   []string
	globals []string
}

// build walks the module once. Per-function call and global lists are
// shared through the function-level content map: Function.Fingerprint
// streams callee and global names along with the opcode structure, so equal
// fingerprints imply equal shapes.
//
// The cache outlives the modules it summarizes, and a parsed module's names
// are substrings of its source text, so every name the summary keeps is
// cloned: otherwise each summary would pin the whole source of every unit
// version the process has seen.
func (c *SummaryCache) build(m *ir.Module, key uint64) *tuSummary {
	s := &tuSummary{
		modName: strings.Clone(m.Name),
		fp:      key,
		globals: cloneAll(m.Globals),
		funcs:   make([]fnSummary, 0, len(m.Funcs)),
		byName:  make(map[string]int, len(m.Funcs)),
	}
	for _, f := range m.Funcs {
		ffp := f.Fingerprint()
		c.mu.Lock()
		shape, cached := c.fns.get(ffp)
		c.mu.Unlock()
		if !cached {
			shape.calls, shape.globals = walkFunc(f)
			c.mu.Lock()
			c.fns.put(ffp, shape)
			c.mu.Unlock()
		}
		name := strings.Clone(f.Name)
		s.byName[name] = len(s.funcs)
		s.funcs = append(s.funcs, fnSummary{
			name:     name,
			exported: f.Exported,
			fp:       ffp,
			calls:    shape.calls,
			globals:  shape.globals,
		})
	}
	return s
}

// walkFunc extracts the ordered callee list and the distinct referenced
// globals of one function.
func walkFunc(f *ir.Function) (calls, globals []string) {
	seenG := map[string]bool{}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpCall:
				calls = append(calls, in.Callee)
			case ir.OpLoadG, ir.OpStoreG:
				if !seenG[in.Global] {
					seenG[in.Global] = true
					globals = append(globals, in.Global)
				}
			}
		}
	}
	return cloneAll(calls), cloneAll(globals)
}

// cloneAll returns a copy of names whose strings share no memory with the
// originals.
func cloneAll(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = strings.Clone(n)
	}
	return out
}
