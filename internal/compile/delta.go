package compile

import (
	"cmp"
	"slices"

	"optinline/internal/callgraph"
)

// This file implements incremental delta evaluation on top of the memo
// engine. The paper's exactness argument (DESIGN.md §1) says total size is
// a sum of independent per-component terms; the memo engine already caches
// the per-function terms, but Size still re-derives the whole sum — every
// call walks all functions, rebuilds their closure keys, and re-runs the
// label-based DFE maps — even when the configuration differs from an
// already-priced one in a single label.
//
// A Sized handle pins a priced configuration's per-function
// contributions. Both clients price a configuration a few labels away from
// a priced one the same way: the search at every inlining-tree node, the
// autotuner at every probe of a round. SizeVia asks the whole-config cache,
// and only on a miss Derive builds the configuration's handle from the
// nearby one by recomputing only the dirty functions:
//
//   - the toggled sites' owners' ancestors in the candidate call graph
//     (precomputed once per Compiler, memo.go) — the only functions whose
//     inline-closure memo key can contain a flipped site; a site enters a
//     closure only after its owner does, so its own label never gates the
//     owner's membership and the static ancestor set is a sound
//     over-approximation for every base configuration;
//   - the toggled sites' callees, whose DFE survival is a pure function of
//     exactly these incoming labels (memoState.alive).
//
// Everything else — survival and size alike — provably cannot change, so
// an n-edge autotuner round costs n dirty-closure recompiles instead of n
// whole-module memo walks. Results are byte-identical to the full path:
// derived totals come from the same funcSize cache the full path fills, the
// same single-flight whole-config cache dedupes and counts evaluations, so
// sizes, configurations, and evaluation counters never depend on which
// path priced a configuration.

// Sized is a priced configuration's size handle: its total size and (when
// the delta engine is active) the per-function size contributions the
// total decomposes into. Sized returns one; Derive writes one into caller
// memory from a handle of a nearby configuration. The configuration itself
// is the caller's. A handle that Sized returns is immutable and safe for
// concurrent use.
//
// A handle holds its contributions in full, or, when Derive made it, as an
// overlay on its base: the entries its toggles dirtied, over the base's.
// A derivation then costs its dirty set, not the module. Reads walk the
// chain to the nearest full vector, and a derivation that would make the
// chain longer than maxOverlayDepth stores a full vector instead.
type Sized struct {
	total   int
	contrib []int    // per memoState.funcs index; 0 for DFE-dead functions
	base    *Sized   // an overlay's base; nil when contrib is full
	overlay []fnSize // the contributions that differ from base's, by index
	depth   int32    // overlays from here to the nearest full vector
	full    bool     // no contributions: a derivation from it starts afresh
}

// fnSize is one overlay entry: function fn contributes size.
type fnSize struct {
	fn   int32
	size int
}

// maxOverlayDepth bounds how many overlays a contribution read walks.
const maxOverlayDepth = 8

// contribOf returns function i's contribution.
func (s *Sized) contribOf(i int32) int {
	for h := s; ; h = h.base {
		if h.base == nil {
			return h.contrib[i]
		}
		if k, ok := slices.BinarySearchFunc(h.overlay, i, func(e fnSize, i int32) int { return cmp.Compare(e.fn, i) }); ok {
			return h.overlay[k].size
		}
	}
}

// appendContrib appends the handle's contributions in full to dst and
// returns the extended slice.
func (s *Sized) appendContrib(dst []int) []int {
	var chain [maxOverlayDepth]*Sized
	n := 0
	h := s
	for ; h.base != nil; h = h.base {
		chain[n] = h
		n++
	}
	at := len(dst)
	dst = append(dst, h.contrib...)
	for n--; n >= 0; n-- {
		for _, e := range chain[n].overlay {
			dst[at+int(e.fn)] = e.size
		}
	}
	return dst
}

// reset readies s to be rewritten, keeping its buffers.
func (s *Sized) reset() {
	*s = Sized{contrib: s.contrib[:0], overlay: s.overlay[:0]}
}

// fail rewrites s as the handle of a configuration that failed to compile.
func (s *Sized) fail() *Sized {
	s.reset()
	s.total, s.full = InfSize, true
	return s
}

// record stores function i's contribution: in place in a full vector,
// appended to an overlay (which Derive fills in ascending order).
func (s *Sized) record(i int32, size int) {
	if s.base == nil {
		s.contrib[i] = size
		return
	}
	s.overlay = append(s.overlay, fnSize{i, size})
}

// Size returns the total size of the handle's configuration.
func (s *Sized) Size() int { return s.total }

// Sized evaluates cfg — charging the whole-config cache and the evaluation
// counters exactly like Size — and returns the handle derivations start
// from. In checked mode the handle carries only the total.
func (c *Compiler) Sized(cfg *callgraph.Config) *Sized {
	if c.check {
		return &Sized{total: c.Size(cfg), full: true}
	}
	var h *Sized
	size, hit := c.sizes.get(cfg, func() int {
		c.evals.Add(1)
		if h = c.Derive(new(Sized), nil, cfg, nil); h.total == InfSize {
			c.errors.Add(1)
		}
		return h.total
	})
	if !hit {
		return h
	}
	c.hits.Add(1)
	if size == InfSize {
		return new(Sized).fail()
	}
	// Every per-function term is memo-resident: a cache walk, not a compile.
	return c.Derive(new(Sized), nil, cfg, nil)
}

// Derive makes h the handle of cfg, which differs from base's
// configuration by exactly the toggled sites (with a nil base: cfg is
// priced from the clean slate), and returns it, without consulting or
// charging the whole-config cache or the evaluation counters: clients
// charge their requests through SizeVia. The search derives each
// inlining-tree node's handle from its parent's this way, and the
// autotuner each probe's and each round's from the round's base, into
// memory they reuse. From a base it reprices only the functions the
// toggles dirty; from nil, or from a base that failed to compile, it
// prices every function.
//
// cfg is read only during the call. h keeps its base, which must outlive
// it. Derive reuses the buffers h holds from an earlier derivation, so h
// must no longer be in use, nor be another handle's base. Returns nil in
// checked mode.
func (c *Compiler) Derive(h, base *Sized, cfg *callgraph.Config, toggles []int) *Sized {
	if c.check {
		return nil
	}
	h.reset()
	ms := c.memo
	sc := dirtyPool.Get().(*dirtyScratch)
	defer sc.release()
	if base == nil || base.full {
		h.contrib = append(h.contrib, make([]int, len(ms.funcs))...)
		for i, fi := range ms.funcs {
			if !ms.alive(fi, cfg) {
				continue
			}
			s := c.funcSize(sc, fi, cfg)
			if s == InfSize {
				return h.fail()
			}
			h.contrib[i] = s
			h.total += s
		}
		return h
	}
	h.base, h.depth = base, base.depth+1
	if h.depth > maxOverlayDepth {
		h.contrib, h.base, h.depth = base.appendContrib(h.contrib), nil, 0
	}
	dirty := ms.dirty(sc, toggles)
	c.deltaDirty.Add(int64(len(dirty)))
	if h.base != nil {
		h.overlay = slices.Grow(h.overlay, len(dirty))
	}
	h.total = base.total
	for _, i := range dirty {
		fi := ms.funcs[i]
		size := 0
		if ms.alive(fi, cfg) {
			if size = c.funcSize(sc, fi, cfg); size == InfSize {
				return h.fail()
			}
		}
		h.record(i, size)
		h.total += size - base.contribOf(i)
	}
	return h
}

// SizeVia is Size for a configuration the caller can derive a handle for:
// a cached configuration costs what it costs Size, and a miss is charged
// as a delta evaluation — one evaluation, one delta evaluation — and
// priced as the total of pull's handle, which must be cfg's. Clients that
// derive their handles lazily therefore build them only for
// configurations the cache does not already hold. In checked mode pull is
// never called.
func (c *Compiler) SizeVia(cfg *callgraph.Config, pull func() *Sized) int {
	if c.check {
		return c.Size(cfg)
	}
	size, hit := c.sizes.get(cfg, func() int {
		c.evals.Add(1)
		c.deltaEvals.Add(1)
		total := pull().total
		if total == InfSize {
			c.errors.Add(1)
		}
		return total
	})
	if hit {
		c.hits.Add(1)
	}
	return size
}
