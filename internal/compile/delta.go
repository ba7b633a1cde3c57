package compile

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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
// A Sized handle pins a priced base configuration together with its
// per-function contributions. SizeDelta prices a toggled variant by
// recomputing only the dirty functions:
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
// delta totals come from the same funcSize cache the full path fills, the
// same single-flight whole-config cache dedupes and counts evaluations, so
// sizes, configurations, and evaluation counters never depend on which
// path priced a configuration.

// Sized is a priced configuration handle: the configuration, its total
// size, and (when the delta engine is active) the per-function size
// contributions the total decomposes into. SizeDelta, Rebase and Derive
// price toggled variants from a handle. A handle that Sized or Rebase
// returns is immutable and safe for concurrent use.
//
// A handle holds its contributions in full, or, when Derive made it, as an
// overlay on its base: the entries its toggles dirtied, over the base's.
// A derivation then costs its dirty set, not the module. Reads walk the
// chain to the nearest full vector, and a derivation that would make the
// chain longer than maxOverlayDepth stores a full vector instead.
type Sized struct {
	cfg     *callgraph.Config
	total   int
	contrib []int    // per memoState.funcs index; 0 for DFE-dead functions
	base    *Sized   // an overlay's base; nil when contrib is full
	overlay []fnSize // the contributions that differ from base's, by index
	depth   int32    // overlays from here to the nearest full vector
	full    bool     // no contributions: delta requests fall back to Size
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

// reset readies s to be rewritten as cfg's handle, keeping its buffers.
func (s *Sized) reset(cfg *callgraph.Config) {
	*s = Sized{cfg: cfg, contrib: s.contrib[:0], overlay: s.overlay[:0]}
}

// record stores function i's contribution under the handle's
// configuration: in place in a full vector, appended to an overlay (which
// applyDelta fills in ascending order).
func (s *Sized) record(i int32, size int) {
	if s.base == nil {
		s.contrib[i] = size
		return
	}
	s.overlay = append(s.overlay, fnSize{i, size})
}

// Size returns the total size of the handle's configuration.
func (s *Sized) Size() int { return s.total }

// Config returns a copy of the handle's configuration.
func (s *Sized) Config() *callgraph.Config { return s.cfg.Clone() }

// Inline reports the handle configuration's label for a site.
func (s *Sized) Inline(site int) bool { return s.cfg.Inline(site) }

// toggled returns base's configuration with every listed site's label
// flipped relative to the base (duplicates are therefore harmless).
func (c *Compiler) toggled(base *Sized, toggles []int) *callgraph.Config {
	cfg := base.cfg.Clone()
	for _, s := range toggles {
		cfg.Set(s, !base.cfg.Inline(s))
	}
	return cfg
}

// Sized evaluates cfg — charging the whole-config cache and the evaluation
// counters exactly like Size — and returns the handle the delta calls
// start from. In checked mode the handle carries only the total and every
// derived request falls back to the full path.
func (c *Compiler) Sized(cfg *callgraph.Config) *Sized {
	if c.check {
		return &Sized{cfg: cfg.Clone(), total: c.Size(cfg), full: true}
	}
	var h *Sized
	size, hit := c.sizes.get(cfg, func() int {
		h = c.newHandle(cfg)
		return h.total
	})
	if hit {
		c.hits.Add(1)
		return c.handleFor(cfg, size)
	}
	return h
}

// Derive makes h the handle of cfg, which differs from base's
// configuration by exactly the toggled sites (with a nil base: cfg is
// priced from the clean slate), and returns it, without consulting or
// charging the whole-config cache or the evaluation counters. It is
// Rebase for clients that charge their own evaluations, through SizeVia,
// and that own their configurations: the search derives each
// inlining-tree node's handle from its parent's this way, into memory the
// search reuses. From a base it reprices only the functions the toggles
// dirty; from nil, or from a base that failed to compile, it prices every
// function.
//
// h keeps cfg, which must not change while h is in use, and its base,
// which must outlive it. Derive reuses the buffers h holds from an earlier
// derivation, so h must no longer be in use, nor be another handle's
// base. Returns nil in checked mode.
func (c *Compiler) Derive(h, base *Sized, cfg *callgraph.Config, toggles []int) *Sized {
	if c.check {
		return nil
	}
	h.reset(cfg)
	if base == nil || base.full {
		return c.price(h)
	}
	h.base, h.depth = base, base.depth+1
	if h.depth > maxOverlayDepth {
		h.contrib, h.base, h.depth = base.appendContrib(h.contrib), nil, 0
	}
	if h.total = c.applyDelta(base, cfg, toggles, h); h.total == InfSize {
		h.reset(cfg)
		h.total, h.full = InfSize, true
	}
	return h
}

// SizeVia is Size for a configuration the caller can derive a handle for:
// a cached configuration costs what it costs Size, and a miss is charged
// like SizeDelta's — one evaluation, one delta evaluation — and priced as
// the total of pull's handle, which must be cfg's. Clients that derive
// their handles lazily therefore build them only for configurations the
// cache does not already hold. In checked mode pull is never called.
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

// SizeDelta prices the configuration that differs from base by the given
// toggles. It is the incremental equivalent of Size(toggled config): same
// single-flight cache, same counters, byte-identical result — but a miss
// recomputes only the dirty functions instead of walking the module.
func (c *Compiler) SizeDelta(base *Sized, toggles []int) int {
	cfg := c.toggled(base, toggles)
	if base.full || c.check {
		return c.Size(cfg)
	}
	size, hit := c.sizes.get(cfg, func() int { return c.measureDelta(base, cfg, toggles, nil) })
	if hit {
		c.hits.Add(1)
	}
	return size
}

// SizeDeltaParallel prices many toggle sets against the same base
// concurrently, in order. workers <= 0 selects GOMAXPROCS.
func (c *Compiler) SizeDeltaParallel(base *Sized, toggles [][]int, workers int) []int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(toggles) {
		workers = len(toggles)
	}
	out := make([]int, len(toggles))
	if workers <= 1 {
		for i, t := range toggles {
			out[i] = c.SizeDelta(base, t)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(toggles) {
					return
				}
				out[i] = c.SizeDelta(base, toggles[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// Rebase is SizeDelta returning a full handle: it prices base⊕toggles
// (one cache request, like SizeDelta) and carries the updated per-function
// contributions forward, so a round-based client advances its base without
// re-walking the module.
func (c *Compiler) Rebase(base *Sized, toggles []int) *Sized {
	cfg := c.toggled(base, toggles)
	if base.full || c.check {
		return &Sized{cfg: cfg, total: c.Size(cfg), full: true}
	}
	h := &Sized{cfg: cfg, contrib: base.appendContrib(nil)}
	size, hit := c.sizes.get(cfg, func() int { return c.measureDelta(base, cfg, toggles, h) })
	if hit {
		c.hits.Add(1)
		if size != InfSize {
			c.applyDelta(base, cfg, toggles, h)
		}
	}
	if size == InfSize {
		return &Sized{cfg: cfg, total: InfSize, full: true}
	}
	h.total = size
	return h
}

// measureDelta is the miss path of SizeDelta/Rebase: it mirrors measure()'s
// counter discipline (one evaluation; one error on a failed build) while
// doing only the dirty work.
func (c *Compiler) measureDelta(base *Sized, cfg *callgraph.Config, toggles []int, into *Sized) int {
	c.evals.Add(1)
	c.deltaEvals.Add(1)
	total := c.applyDelta(base, cfg, toggles, into)
	if total == InfSize {
		c.errors.Add(1)
	}
	return total
}

// applyDelta recomputes the dirty functions' contributions under cfg and
// returns the adjusted total (InfSize if any dirty closure fails to
// compile). When into is non-nil (cfg's handle: a copy of base's
// contributions, or an empty overlay on base) it records the dirty
// entries.
func (c *Compiler) applyDelta(base *Sized, cfg *callgraph.Config, toggles []int, into *Sized) int {
	ms := c.memo
	sc := dirtyPool.Get().(*dirtyScratch)
	defer sc.release()
	dirty := ms.dirty(sc, toggles)
	c.deltaDirty.Add(int64(len(dirty)))
	if into != nil && into.base != nil {
		into.overlay = slices.Grow(into.overlay[:0], len(dirty))
	}
	total := base.total
	for _, i := range dirty {
		fi := ms.funcs[i]
		size := 0
		if ms.alive(fi, cfg) {
			size = c.funcSize(sc, fi, cfg)
			if size == InfSize {
				return InfSize
			}
		}
		if into != nil {
			into.record(i, size)
		}
		total += size - base.contribOf(i)
	}
	return total
}

// newHandle is the miss path of Sized: measureMemo with per-function
// contribution recording.
func (c *Compiler) newHandle(cfg *callgraph.Config) *Sized {
	c.evals.Add(1)
	h := c.contribHandle(cfg)
	if h.total == InfSize {
		c.errors.Add(1)
	}
	return h
}

// handleFor rebuilds the contribution vector of an already-priced
// configuration; every per-function term is memo-resident, so this is a
// cache walk, not a compilation.
func (c *Compiler) handleFor(cfg *callgraph.Config, size int) *Sized {
	if size == InfSize {
		return &Sized{cfg: cfg.Clone(), total: InfSize, full: true}
	}
	return c.contribHandle(cfg)
}

// contribHandle prices cfg function by function, recording contributions.
// It touches only the per-function memo, never the whole-config cache.
func (c *Compiler) contribHandle(cfg *callgraph.Config) *Sized {
	return c.price(&Sized{cfg: cfg.Clone()})
}

// price fills h, reset for its configuration, with every function's
// contribution and their total, or marks it failed.
func (c *Compiler) price(h *Sized) *Sized {
	ms := c.memo
	sc := dirtyPool.Get().(*dirtyScratch)
	defer sc.release()
	h.contrib = append(h.contrib[:0], make([]int, len(ms.funcs))...)
	for i, fi := range ms.funcs {
		if !ms.alive(fi, h.cfg) {
			continue
		}
		s := c.funcSize(sc, fi, h.cfg)
		if s == InfSize {
			h.reset(h.cfg)
			h.total, h.full = InfSize, true
			return h
		}
		h.contrib[i] = s
		h.total += s
	}
	return h
}
