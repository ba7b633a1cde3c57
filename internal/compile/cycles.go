package compile

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/interp"
	"optinline/internal/ir"
)

// This file implements the incremental cycle-evaluation engine: the
// runtime-objective twin of the size delta engine (delta.go). One profiling
// pass (interp.Collect) interprets the workload once, under the baseline
// no-inline build, and records per-function frame counts, per-site frame
// counts, and the exact i-cache touch sequence. A CyclePricer then prices
// any configuration's total cycles without running the interpreter again:
//
//	cycles(cfg) = Σ_f entries(f,cfg) · perEntry(f,cfg) + icache(cfg)
//
//   - entries(f,cfg): frames entering f — the profiled count, minus the
//     frames created by call sites cfg inlines (inlining site s deletes
//     exactly the Hits[s] frames s created; their bodies now execute inside
//     the caller's frame and are priced there, because the caller's
//     post-inline body contains the spliced code);
//   - perEntry(f,cfg): the static cycle cost of f's final post-inline body
//     (interp.CostOf over every instruction, plus the call overhead of
//     calls that leave the module) plus the callee-side entry overhead
//     (CostCallOverhead + params·CostPerArg);
//   - icache(cfg): the LRU penalty, re-simulated over the profiled touch
//     sequence with the events of inlined frames deleted and every
//     function's size replaced by its size under cfg. The surviving
//     sequence is exactly the touch sequence the machine would produce on
//     the inlined build whenever the inlined build creates the same frames
//     in the same order, which holds for every configuration whose frame
//     tree the profile determines (see EXPERIMENTS.md for the boundary:
//     recursive self-inlining and post-inline constant folding make the
//     model an approximation of a true re-interpretation, applied equally
//     on every evaluation path).
//
// Toggling a site reprices only the dirty functions — the same inverse-
// reachability dirty set the size engine uses, because a function's
// per-entry cost changes exactly when its inline closure can contain a
// toggled site (the owner's ancestors) and its entry count changes exactly
// when an incoming site toggles (the callee). A checked-mode compiler's
// pricer evaluates the same model non-incrementally from a whole-module
// Build;
// results are byte-identical by the memo engine's soundness argument (the
// per-closure body is bit-identical to the whole-module body).

// InfCycles is returned for configurations that fail to compile; it
// compares worse than any real cycle count and survives λ-weighting
// without overflowing.
const InfCycles = math.MaxInt64 / 4

// CycleOptions configures a CyclePricer.
type CycleOptions struct {
	// CacheBytes is the modelled i-cache capacity the penalty is
	// re-simulated under; 0 selects interp.DefaultCacheBytes. One profile
	// can be replayed under any capacity (the touch sequence is geometry-
	// independent), so pricers with different capacities share a profile.
	CacheBytes int
}

// CyclePricerStats are the engine's monotone counters.
type CyclePricerStats struct {
	Repricings   int64 // configurations priced incrementally (dirty-set walk)
	FullEvals    int64 // configurations priced by whole-module Build
	CacheHits    int64 // config-cache hits
	ReplayEvents int64 // i-cache events replayed across all evaluations
	CostHits     int64 // per-closure cost-cache hits
	CostMisses   int64 // per-closure cost-cache misses (closure compiles)
}

func (s CyclePricerStats) String() string {
	return fmt.Sprintf("repricings %d, full evals %d, cache hits %d, replay events %d, cost cache %d/%d",
		s.Repricings, s.FullEvals, s.CacheHits, s.ReplayEvents, s.CostHits, s.CostHits+s.CostMisses)
}

// Add accumulates counters across pricers.
func (s CyclePricerStats) Add(o CyclePricerStats) CyclePricerStats {
	s.Repricings += o.Repricings
	s.FullEvals += o.FullEvals
	s.CacheHits += o.CacheHits
	s.ReplayEvents += o.ReplayEvents
	s.CostHits += o.CostHits
	s.CostMisses += o.CostMisses
	return s
}

// cycEvent is one normalized profile event: the memo index of the function
// whose code is touched, and the candidate site that created the frame
// (0 when the frame cannot be deleted by any toggle: the root, calls
// without a site, and non-candidate sites).
type cycEvent struct {
	site int32
	fn   int32
}

// CyclePricer prices configurations in cycles against one profile.
// It is safe for concurrent use.
type CyclePricer struct {
	c          *Compiler
	cacheBytes int

	entriesBase []int64       // per memo func: frames from the root and non-candidate sites
	hits        map[int]int64 // candidate site -> profiled frames
	events      []cycEvent

	cycles *configTable[int64]

	costMu sync.Mutex
	costs  map[FnKey]*costEntry

	simPool sync.Pool

	repricings   atomic.Int64
	fullEvals    atomic.Int64
	cacheHits    atomic.Int64
	replayEvents atomic.Int64
	costHits     atomic.Int64
	costMisses   atomic.Int64
}

// costEntry is a single-flight slot of the per-closure cost cache: the
// static per-entry cycle cost and encoded size of one final function body.
type costEntry struct {
	done   chan struct{}
	cost   int64
	size   int32
	ok     bool
	failed bool // computation panicked and was withdrawn; waiters retry
}

// NewCyclePricer builds a pricer for this compiler from a profile collected
// on the compiler's baseline (no-inline) build. It fails if the profile
// names functions the module does not contain, or attributes more frames to
// a function's candidate sites than the function has entries — both mean
// the profile belongs to a different module.
func (c *Compiler) NewCyclePricer(p *interp.Profile, opts CycleOptions) (*CyclePricer, error) {
	ms := c.memo
	cacheBytes := opts.CacheBytes
	if cacheBytes == 0 {
		cacheBytes = interp.DefaultCacheBytes
	}
	cp := &CyclePricer{
		c:           c,
		cacheBytes:  cacheBytes,
		entriesBase: []int64(nil),
		hits:        map[int]int64{},
		cycles:      newConfigTable[int64](),
		costs:       map[FnKey]*costEntry{},
	}
	cp.simPool.New = func() any { return interp.NewCacheSim(cacheBytes) }

	byIdx := make([]int32, len(p.Funcs)) // profile index -> memo index
	idxOf := make(map[string]int32, len(ms.funcs))
	for i, fi := range ms.funcs {
		idxOf[fi.name] = int32(i)
	}
	cp.entriesBase = make([]int64, len(ms.funcs))
	for pi, name := range p.Funcs {
		mi, ok := idxOf[name]
		if !ok {
			return nil, fmt.Errorf("cyclepricer: profiled function %q not in module", name)
		}
		byIdx[pi] = mi
		cp.entriesBase[mi] = p.Entries[pi]
	}
	for s, h := range p.Hits {
		callee, ok := ms.siteCallee[int(s)]
		if !ok {
			continue // non-candidate site: its frames stay in entriesBase
		}
		cp.hits[int(s)] = h
		cp.entriesBase[callee.idx] -= h
		if cp.entriesBase[callee.idx] < 0 {
			return nil, fmt.Errorf("cyclepricer: profile overcounts sites into %q", callee.name)
		}
	}
	cp.events = make([]cycEvent, len(p.Events))
	for i, ev := range p.Events {
		site := int32(0)
		if ev.Site > 0 {
			if _, ok := ms.siteCallee[int(ev.Site)]; ok {
				site = ev.Site
			}
		}
		cp.events[i] = cycEvent{site: site, fn: byIdx[ev.Fn]}
	}
	return cp, nil
}

// CacheBytes returns the modelled i-cache capacity.
func (p *CyclePricer) CacheBytes() int { return p.cacheBytes }

// Events returns the number of profiled i-cache events (replay length).
func (p *CyclePricer) Events() int { return len(p.events) }

// Stats returns the engine's counters.
func (p *CyclePricer) Stats() CyclePricerStats {
	return CyclePricerStats{
		Repricings:   p.repricings.Load(),
		FullEvals:    p.fullEvals.Load(),
		CacheHits:    p.cacheHits.Load(),
		ReplayEvents: p.replayEvents.Load(),
		CostHits:     p.costHits.Load(),
		CostMisses:   p.costMisses.Load(),
	}
}

// entriesUnder returns the frames entering fi under cfg: the baseline
// remainder plus the hits of every incoming candidate site cfg leaves as a
// real call.
func (p *CyclePricer) entriesUnder(fi *funcInfo, cfg *callgraph.Config) int64 {
	n := p.entriesBase[fi.idx]
	for _, s := range fi.inSites {
		if h := p.hits[s]; h != 0 && !cfg.Inline(s) {
			n += h
		}
	}
	return n
}

// bodyCost walks a final (post-inline, post-opt) body and returns its
// static per-entry cycle cost: every instruction's CostOf, plus the call
// overhead of calls that leave the module (internal calls are priced
// callee-side via that callee's entries), plus this function's own
// callee-side entry overhead.
func (p *CyclePricer) bodyCost(fn *ir.Function) int64 {
	cost := int64(interp.CostCallOverhead) + int64(fn.NumParams())*interp.CostPerArg
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			cost += interp.CostOf(in)
			if in.Op == ir.OpCall && p.c.base.Func(in.Callee) == nil {
				cost += interp.CostCallOverhead
			}
		}
	}
	return cost
}

// closureCost returns fi's per-entry cost and size under cfg, compiling the
// inline closure at most once per content key (single-flight; the key is
// the same content-addressed closureKey the size memo uses, so equal keys
// imply bit-identical final bodies).
func (p *CyclePricer) closureCost(fi *funcInfo, cfg *callgraph.Config) (int64, int32, bool) {
	members := p.c.memo.closure(fi, cfg)
	key := p.c.closureKey(fi, members, cfg)
	for {
		p.costMu.Lock()
		if e, ok := p.costs[key]; ok {
			p.costMu.Unlock()
			<-e.done
			if e.failed {
				continue
			}
			p.costHits.Add(1)
			return e.cost, e.size, e.ok
		}
		e := &costEntry{done: make(chan struct{})}
		p.costs[key] = e
		p.costMu.Unlock()

		p.costMisses.Add(1)
		panicked := true
		func() {
			defer func() {
				if panicked {
					p.costMu.Lock()
					delete(p.costs, key)
					p.costMu.Unlock()
					e.failed = true
					close(e.done)
				}
			}()
			e.cost, e.size, e.ok = p.compileClosureCost(fi, members, cfg)
			panicked = false
		}()
		close(e.done)
		return e.cost, e.size, e.ok
	}
}

// compileClosureCost is compileClosure returning the final body's per-entry
// cost and size instead of just the size.
func (p *CyclePricer) compileClosureCost(fi *funcInfo, members []*funcInfo, cfg *callgraph.Config) (int64, int32, bool) {
	a := arenaPool.Get().(*ir.Arena)
	defer releaseArena(a)
	fn := p.c.optimizeClosure(fi, members, cfg, a)
	if fn == nil {
		return 0, 0, false
	}
	return p.bodyCost(fn), int32(codegen.FunctionSize(fn, p.c.target)), true
}

// replay re-simulates the LRU i-cache over the profiled touch sequence:
// events of frames cfg inlines are deleted (their code runs inside the
// caller's frame, whose own entry/ret events survive), and every surviving
// access uses the function's size under cfg.
func (p *CyclePricer) replay(cfg *callgraph.Config, sizes []int32) int64 {
	sim := p.simPool.Get().(*interp.CacheSim)
	sim.Grow(len(sizes))
	sim.Reset()
	var penalty int64
	for _, ev := range p.events {
		if ev.site != 0 && cfg.Inline(int(ev.site)) {
			continue
		}
		size := int(sizes[ev.fn])
		if sim.Access(ev.fn, size) {
			penalty += interp.MissPenalty(size)
		}
	}
	p.replayEvents.Add(int64(len(p.events)))
	p.simPool.Put(sim)
	return penalty
}

// Cycled is a priced configuration handle: the configuration, its total
// cycles, and (when the incremental path is active) the per-function entry
// counts, per-entry costs and sizes the total decomposes into. Handles are
// immutable and safe for concurrent use.
type Cycled struct {
	cfg     *callgraph.Config
	total   int64
	entries []int64
	perEnt  []int64
	sizes   []int32
	full    bool
}

// Cycles returns the handle's total cycle count.
func (h *Cycled) Cycles() int64 { return h.total }

// Config returns a copy of the handle's configuration.
func (h *Cycled) Config() *callgraph.Config { return h.cfg.Clone() }

// Cycles prices one configuration, compiling at most once per canonical
// configuration (single-flight, like Compiler.Size).
func (p *CyclePricer) Cycles(cfg *callgraph.Config) int64 {
	cycles, hit := p.cycles.get(cfg, func() int64 {
		if p.c.check {
			return p.fullCycles(cfg)
		}
		return p.pricedMiss(cfg).total
	})
	if hit {
		p.cacheHits.Add(1)
	}
	return cycles
}

// Priced evaluates cfg and returns the handle the delta calls start from.
func (p *CyclePricer) Priced(cfg *callgraph.Config) *Cycled {
	if p.c.check {
		return &Cycled{cfg: cfg.Clone(), total: p.Cycles(cfg), full: true}
	}
	var h *Cycled
	cycles, hit := p.cycles.get(cfg, func() int64 {
		h = p.pricedMiss(cfg)
		return h.total
	})
	if !hit {
		return h
	}
	p.cacheHits.Add(1)
	if cycles == InfCycles {
		return &Cycled{cfg: cfg.Clone(), total: InfCycles, full: true}
	}
	return p.contribCycled(cfg) // cost cache resident: a walk, not a compile
}

// pricedMiss prices cfg from scratch on the incremental path, recording
// per-function terms.
func (p *CyclePricer) pricedMiss(cfg *callgraph.Config) *Cycled {
	p.repricings.Add(1)
	return p.contribCycled(cfg)
}

func (p *CyclePricer) contribCycled(cfg *callgraph.Config) *Cycled {
	ms := p.c.memo
	h := &Cycled{
		cfg:     cfg.Clone(),
		entries: make([]int64, len(ms.funcs)),
		perEnt:  make([]int64, len(ms.funcs)),
		sizes:   make([]int32, len(ms.funcs)),
	}
	var instr int64
	for i, fi := range ms.funcs {
		n := p.entriesUnder(fi, cfg)
		h.entries[i] = n
		if n == 0 {
			continue
		}
		cost, size, ok := p.closureCost(fi, cfg)
		if !ok {
			return &Cycled{cfg: cfg.Clone(), total: InfCycles, full: true}
		}
		h.perEnt[i] = cost
		h.sizes[i] = size
		instr += n * cost
	}
	h.total = instr + p.replay(cfg, h.sizes)
	return h
}

// fullCycles prices cfg with a whole-module Build — the checked-mode
// reference. It evaluates the identical model (same entry counts, same static
// walk over the final bodies, same replay), just without the per-closure
// cache or the dirty-set shortcut.
func (p *CyclePricer) fullCycles(cfg *callgraph.Config) int64 {
	p.fullEvals.Add(1)
	built, err := p.c.Build(cfg)
	if err != nil {
		return InfCycles
	}
	ms := p.c.memo
	idxOf := make(map[string]int32, len(ms.funcs))
	for i, fi := range ms.funcs {
		idxOf[fi.name] = int32(i)
	}
	sizes := make([]int32, len(ms.funcs))
	var instr int64
	for _, fn := range built.Funcs {
		mi, ok := idxOf[fn.Name]
		if !ok {
			continue // functions introduced by the pipeline never run
		}
		fi := ms.funcs[mi]
		sizes[mi] = int32(codegen.FunctionSize(fn, p.c.target))
		n := p.entriesUnder(fi, cfg)
		if n == 0 {
			continue
		}
		instr += n * p.bodyCost(fn)
	}
	return instr + p.replay(cfg, sizes)
}

// toggledCfg returns base's configuration with every listed site flipped.
func (h *Cycled) toggledCfg(toggles []int) *callgraph.Config {
	cfg := h.cfg.Clone()
	for _, s := range toggles {
		cfg.Set(s, !h.cfg.Inline(s))
	}
	return cfg
}

// CyclesDelta prices the configuration that differs from base by the given
// toggles, recomputing only the dirty functions' terms before the replay.
// Byte-identical to Cycles(toggled config) on every path.
func (p *CyclePricer) CyclesDelta(base *Cycled, toggles []int) int64 {
	cfg := base.toggledCfg(toggles)
	if base.full || p.c.check {
		return p.Cycles(cfg)
	}
	cycles, hit := p.cycles.get(cfg, func() int64 { return p.measureCycleDelta(base, cfg, toggles, nil) })
	if hit {
		p.cacheHits.Add(1)
	}
	return cycles
}

// CyclesDeltaParallel prices many toggle sets against the same base
// concurrently, in order. workers <= 0 selects GOMAXPROCS.
func (p *CyclePricer) CyclesDeltaParallel(base *Cycled, toggles [][]int, workers int) []int64 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(toggles) {
		workers = len(toggles)
	}
	out := make([]int64, len(toggles))
	if workers <= 1 {
		for i, t := range toggles {
			out[i] = p.CyclesDelta(base, t)
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
				out[i] = p.CyclesDelta(base, toggles[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// Rebase prices base⊕toggles and carries the updated per-function terms
// forward, so a round-based client advances its base without re-walking
// the module.
func (p *CyclePricer) Rebase(base *Cycled, toggles []int) *Cycled {
	cfg := base.toggledCfg(toggles)
	if base.full || p.c.check {
		return &Cycled{cfg: cfg, total: p.Cycles(cfg), full: true}
	}
	h := &Cycled{
		cfg:     cfg,
		entries: append([]int64(nil), base.entries...),
		perEnt:  append([]int64(nil), base.perEnt...),
		sizes:   append([]int32(nil), base.sizes...),
	}
	cycles, hit := p.cycles.get(cfg, func() int64 { return p.measureCycleDelta(base, cfg, toggles, h) })
	if hit {
		p.cacheHits.Add(1)
		if cycles != InfCycles {
			p.applyCycleDelta(base, cfg, toggles, h)
		}
	}
	if cycles == InfCycles {
		return &Cycled{cfg: cfg, total: InfCycles, full: true}
	}
	h.total = cycles
	return h
}

// measureCycleDelta is the miss path of CyclesDelta/Rebase.
func (p *CyclePricer) measureCycleDelta(base *Cycled, cfg *callgraph.Config, toggles []int, into *Cycled) int64 {
	p.repricings.Add(1)
	return p.applyCycleDelta(base, cfg, toggles, into)
}

// applyCycleDelta recomputes the dirty functions' terms under cfg and
// returns the adjusted total. When into is non-nil (carrying copies of
// base's vectors) the dirty entries are updated in place. The replay runs
// over the updated sizes either way; it is the per-evaluation floor of the
// engine — O(profiled events), independent of module size.
func (p *CyclePricer) applyCycleDelta(base *Cycled, cfg *callgraph.Config, toggles []int, into *Cycled) int64 {
	ms := p.c.memo
	dirty := ms.dirty(toggles)
	// The replay needs the full size vector with dirty slots updated; base
	// handles are immutable, so update into's copy or a scratch copy.
	sizes := base.sizes
	if into != nil {
		sizes = into.sizes
	} else {
		sizes = append([]int32(nil), base.sizes...)
	}
	var instr int64
	for i := range base.entries {
		instr += base.entries[i] * base.perEnt[i]
	}
	for _, i := range dirty {
		fi := ms.funcs[i]
		n := p.entriesUnder(fi, cfg)
		var cost int64
		var size int32
		if n > 0 {
			var ok bool
			cost, size, ok = p.closureCost(fi, cfg)
			if !ok {
				return InfCycles
			}
		}
		instr += n*cost - base.entries[i]*base.perEnt[i]
		sizes[i] = size
		if into != nil {
			into.entries[i], into.perEnt[i] = n, cost
		}
	}
	return instr + p.replay(cfg, sizes)
}

// DirtySorted exposes the dirty-set computation for tests.
func (p *CyclePricer) DirtySorted(toggles []int) []int {
	d := p.c.memo.dirty(toggles)
	out := make([]int, len(d))
	for i, v := range d {
		out[i] = int(v)
	}
	sort.Ints(out)
	return out
}
