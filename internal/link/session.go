package link

import (
	"fmt"
	"sync"

	"optinline/internal/autotune"
	"optinline/internal/callgraph"
	"optinline/internal/compile"
)

// Session is the incremental re-link engine: it holds a resolved multi-TU
// plan, accepts Replace edits that swap one unit's contents, and answers
// Search/Tune queries by re-solving only components whose content changed
// while replaying everything else from a content-keyed ComponentCache.
//
// It is also the one sharded query path: a cold Linker.OptimalSearch or
// Linker.Tune is a Session query on a private, empty cache. The session
// exploits the paper's §3 independence theorem both spatially — components
// are solved on their own sub-modules, in parallel — and over time — a
// component whose members, linkage, and bound call structure are unchanged
// since some earlier solve (in this query, this session, another session,
// or another link entirely) has the same optimum, so an edit-one-TU
// re-search pays only for the edited unit's components. A checked query
// answers from a cold New+OptimalSearch over the same units on the merged
// reference path instead, and the two must stay byte-identical; every
// replay shortcut here is backed by the key argument in key.go and
// re-proved by the fuzz differential.
type Session struct {
	mu      sync.Mutex
	l       *Linker
	results *ComponentCache
	stats   RelinkStats
}

// SessionOptions configures NewSession.
type SessionOptions struct {
	// Link configures the underlying linker.
	Link Options
	// Results is the component result cache; nil selects a process-wide
	// shared cache. Sharing one cache across sessions is safe and is the
	// point: keys are pure content.
	Results *ComponentCache
}

// RelinkStats counts session activity.
type RelinkStats struct {
	Patches      int64 // successful Replace calls
	PlanReuses   int64 // patches whose link surface was unchanged
	PlanRebuilds int64 // patches that re-ran symbol resolution
	Searches     int64
	Tunes        int64
}

// RelinkInfo reports, for one query, how much work was replayed. It is
// cache-state-dependent — diagnostics, never part of byte-diffed output.
type RelinkInfo struct {
	ComponentsSolved   int
	ComponentsReplayed int
	ResidualSolved     int // per-TU residual groups compiled
	ResidualReplayed   int
}

// PatchReport is the outcome of one Replace.
type PatchReport struct {
	TU string
	// PlanReused reports the edit preserved the link surface (names,
	// linkage, call spellings, globals), so symbol resolution, renames,
	// site numbering, and the component partition all carry over
	// unchanged. Body-only edits — the common incremental case — land
	// here and skip replanning entirely.
	PlanReused bool
}

// CycleObjectiveError reports a cycle-aware objective requested on the
// incremental path. Cycle pricing couples components through the modelled
// i-cache (see tuneCyclesMerged), so per-component results can be neither
// cached nor replayed; the session refuses loudly instead of silently
// falling back to a whole-module run the way Linker.Tune does.
type CycleObjectiveError struct {
	Objective TuneObjective
}

func (e *CycleObjectiveError) Error() string {
	return fmt.Sprintf("link: %s objective does not run on the incremental re-link path (cycle prices are not component-separable); use a cold link", objectiveName(e.Objective))
}

func objectiveName(o TuneObjective) string {
	switch o {
	case ObjectiveSize:
		return "size"
	case ObjectiveWeighted:
		return "weighted"
	case ObjectiveCycles:
		return "cycles"
	}
	return fmt.Sprintf("objective(%d)", int(o))
}

// coldSession returns a session over l whose result cache starts empty and
// is dropped with it: the engine behind a cold Linker query.
func (l *Linker) coldSession() *Session {
	return &Session{l: l, results: NewComponentCache()}
}

// NewSession links the units once and returns a session ready for edits.
func NewSession(tus []TU, opts SessionOptions) (*Session, error) {
	l, err := New(tus, opts.Link)
	if err != nil {
		return nil, err
	}
	results := opts.Results
	if results == nil {
		results = defaultComponentCache
	}
	return &Session{l: l, results: results}, nil
}

// Plan returns the current link plan. The returned plan is replaced, never
// mutated, by Replace.
func (s *Session) Plan() *Plan {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.l.plan
}

// TUs returns the canonical unit list.
func (s *Session) TUs() []TU {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.l.tus
}

// Stats snapshots the session counters.
func (s *Session) Stats() RelinkStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Replace swaps unit i for tu. The unit name must match — names pin the
// canonical order every plan artifact is derived from. When the edit
// preserves the link surface the existing plan is kept (only the stored
// summary advances); otherwise symbol resolution reruns over the summaries
// (streamed: the other units are not reloaded). On error the session is
// unchanged.
func (s *Session) Replace(i int, tu TU) (PatchReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.l
	if i < 0 || i >= len(l.tus) {
		return PatchReport{}, fmt.Errorf("link: Replace index %d out of range (have %d units)", i, len(l.tus))
	}
	if tu.Name != l.tus[i].Name {
		return PatchReport{}, fmt.Errorf("link: Replace cannot rename unit %q to %q", l.tus[i].Name, tu.Name)
	}
	m, err := tu.Load()
	if err != nil {
		return PatchReport{}, err
	}
	newSum := l.cache.summarize(m)
	oldTU, oldSum := l.tus[i], l.sums[i]
	rep := PatchReport{TU: tu.Name}
	l.tus[i], l.sums[i] = tu, newSum
	if sameLinkSurface(oldTU, tu, oldSum, newSum) {
		// buildPlan consumes only the link surface, so rebuilding would
		// reproduce the current plan bit for bit; skip it.
		rep.PlanReused = true
		s.stats.Patches++
		s.stats.PlanReuses++
		return rep, nil
	}
	plan, err := buildPlan(l.tus, l.sums, l.opts)
	if err != nil {
		l.tus[i], l.sums[i] = oldTU, oldSum
		return PatchReport{}, err
	}
	l.plan = plan
	s.stats.Patches++
	s.stats.PlanRebuilds++
	return rep, nil
}

// ReplaceNamed replaces the unit whose name matches tu.Name.
func (s *Session) ReplaceNamed(tu TU) (PatchReport, error) {
	s.mu.Lock()
	idx := -1
	for i := range s.l.tus {
		if s.l.tus[i].Name == tu.Name {
			idx = i
			break
		}
	}
	s.mu.Unlock()
	if idx < 0 {
		return PatchReport{}, fmt.Errorf("link: no unit named %q", tu.Name)
	}
	return s.Replace(idx, tu)
}

// sameLinkSurface reports whether two versions of a unit expose an
// identical link surface: everything buildPlan reads. Function bodies are
// free to differ — that is the incremental fast path.
func sameLinkSurface(oldTU, newTU TU, a, b *tuSummary) bool {
	if !sameStringSet(oldTU.LocalGlobals, newTU.LocalGlobals) {
		return false
	}
	if !sameStrings(a.globals, b.globals) {
		return false
	}
	if len(a.funcs) != len(b.funcs) {
		return false
	}
	for i := range a.funcs {
		fa, fb := &a.funcs[i], &b.funcs[i]
		if fa.name != fb.name || fa.exported != fb.exported || !sameStrings(fa.calls, fb.calls) {
			return false
		}
	}
	return true
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameStringSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[string]int, len(a))
	for _, s := range a {
		in[s]++
	}
	for _, s := range b {
		if in[s] == 0 {
			return false
		}
		in[s]--
	}
	return true
}

// Search answers an optimal search over the current unit set, re-solving
// only components absent from the result cache. Results — sizes, per-site
// configuration, per-component stats, the capped abort — do not depend on
// what the cache holds, and are byte-identical to the merged reference
// search; Evaluations and the cache counters cover live solves only
// (replays evaluate nothing). A checked query (Compile.Check) is answered
// by a fresh link of the current units on the merged reference path, and
// replays nothing.
func (s *Session) Search(opts SearchOptions) (SearchResult, RelinkInfo, bool, error) {
	var info RelinkInfo
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Searches++
	l := s.l
	if opts.Compile.Check {
		cold, err := New(l.tus, l.opts)
		if err != nil {
			return SearchResult{}, info, false, err
		}
		res, ok, err := cold.OptimalSearch(opts)
		return res, info, ok, err
	}
	p := l.plan
	res := SearchResult{Components: make([]ComponentStat, len(p.Components))}
	if capped := planSpaces(p, opts.MaxSpace, &res); capped {
		return res, info, false, nil
	}
	outcomes := make([]*searchOutcome, len(p.Components))
	live := make([]*compOut, len(p.Components))
	run := func(ci int) error {
		solve := func() (any, error) {
			o, err := l.solveComponent(ci, opts)
			if err != nil {
				return nil, err
			}
			live[ci] = &o
			return &searchOutcome{
				emptySize: o.emptySize,
				size:      o.size,
				bits:      configBits(p.ComponentEdges(ci), o.cfg),
			}, nil
		}
		key := searchKey(componentKey(p, l.sums, ci, opts.Target))
		v, _, err := s.results.get(key, solve)
		if err != nil {
			return err
		}
		outcomes[ci] = v.(*searchOutcome)
		return nil
	}
	if err := eachComponent(len(p.Components), opts.workers(), run); err != nil {
		return res, info, false, err
	}

	residSize, err := s.residualTotal(opts.ShardOptions, &info, &res.Evaluations)
	if err != nil {
		return res, info, false, err
	}
	cfg := callgraph.NewConfig()
	res.NoInlineSize = residSize
	res.Size = residSize
	for ci, o := range outcomes {
		ccfg := bitsConfig(p.ComponentEdges(ci), o.bits)
		cfg.Merge(ccfg)
		res.NoInlineSize += o.emptySize
		res.Size += o.size
		res.Components[ci].Inlined = ccfg.InlineCount()
		res.Components[ci].SizeDelta = o.size - o.emptySize
		if lo := live[ci]; lo != nil {
			res.Evaluations += lo.evals
			res.ConfigCache = res.ConfigCache.Add(lo.cc)
			res.FuncCache = res.FuncCache.Add(lo.fc)
			info.ComponentsSolved++
		} else {
			info.ComponentsReplayed++
		}
	}
	res.Config = cfg
	return res, info, true, nil
}

// residualTotal sums the clean-slate size of every unit's residual
// (edge-free) functions, one cache entry per unit. Residual functions
// compile in isolation — no incident candidate edges means no inlining in
// and every outgoing call unbound in their sub-module — so the per-unit sum
// equals the size of one whole-residual compile.
func (s *Session) residualTotal(opts ShardOptions, info *RelinkInfo, evals *int64) (int, error) {
	l := s.l
	p := l.plan
	total := 0
	for t := range l.tus {
		resid := 0
		for fi := range p.Funcs {
			if p.Funcs[fi].TU == t && p.Funcs[fi].Comp < 0 {
				resid++
			}
		}
		if resid == 0 {
			continue
		}
		t := t
		compute := func() (any, error) {
			name := fmt.Sprintf("%s#resid%03d", l.opts.moduleName(), t)
			mod, err := l.materialize(name, func(pf *PlannedFunc) bool { return pf.TU == t && pf.Comp < 0 })
			if err != nil {
				return nil, err
			}
			c := compile.NewWithOptions(mod, opts.Target, opts.Compile)
			sz := c.Size(callgraph.NewConfig())
			*evals += c.Evaluations()
			return sz, nil
		}
		v, hit, err := s.results.get(residKey(p, l.sums, t, opts.Target), compute)
		if err != nil {
			return 0, err
		}
		if hit {
			info.ResidualReplayed++
		} else {
			info.ResidualSolved++
		}
		total += v.(int)
	}
	return total, nil
}

// Tune answers a lockstep sharded tuning query over the current unit set,
// replaying per-component round traces from the cache where content
// matches. Results do not depend on what the cache holds, and are
// byte-identical to a whole-module autotune.Tune on the merged module,
// which is how a checked query is answered. Cycle objectives return a
// *CycleObjectiveError in both modes (they are not component-separable).
func (s *Session) Tune(opts TuneOptions) (TuneResult, RelinkInfo, error) {
	var info RelinkInfo
	if opts.Objective != ObjectiveSize {
		return TuneResult{}, info, &CycleObjectiveError{Objective: opts.Objective}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Tunes++
	l := s.l
	if opts.Compile.Check {
		cold, err := New(l.tus, l.opts)
		if err != nil {
			return TuneResult{}, info, err
		}
		res, err := cold.Tune(opts)
		return res, info, err
	}
	p := l.plan
	res := TuneResult{Components: planComponents(p)}
	rounds := opts.Rounds
	if rounds <= 0 {
		rounds = 1
	}

	type tuneShard struct {
		edges  []PlannedEdge
		cached *tuneOutcome
		claim  *ccClaim
		record tuneOutcome
		c      *compile.Compiler
		sess   *autotune.Session
		bits   []uint64 // current labels over edges
		size   int      // current component size
	}
	shards := make([]tuneShard, len(p.Components))
	// Claims must not block: fulfillment only happens after the global
	// loop, so waiting on another in-flight tune here (or on a duplicate
	// key within this very run) could deadlock. tryClaim returns busy in
	// those cases and the component simply solves live, unrecorded.
	for ci := range shards {
		shards[ci].edges = p.ComponentEdges(ci)
		key := tuneKey(componentKey(p, l.sums, ci, opts.Target), opts.Init, rounds)
		if v, hit, claim := s.results.tryClaim(key); hit {
			shards[ci].cached = v.(*tuneOutcome)
		} else {
			shards[ci].claim = claim
		}
	}
	defer func() {
		for ci := range shards {
			if shards[ci].claim != nil {
				shards[ci].claim.withdraw()
			}
		}
	}()

	build := func(ci int) error {
		sh := &shards[ci]
		if sh.cached != nil {
			sh.bits, sh.size = sh.cached.initBits, sh.cached.initSize
			return nil
		}
		mod, err := l.Component(ci)
		if err != nil {
			return err
		}
		c := compile.NewWithOptions(mod, opts.Target, opts.Compile)
		sh.c = c
		sh.sess = autotune.NewSession(c, initConfig(opts.Init, c), opts.Workers)
		sh.bits = configBits(sh.edges, sh.sess.Config())
		sh.size = sh.sess.Size()
		sh.record = tuneOutcome{initSize: sh.size, initBits: sh.bits}
		return nil
	}
	if err := eachComponent(len(shards), opts.workers(), build); err != nil {
		return res, info, err
	}
	residSize, err := s.residualTotal(opts.ShardOptions, &info, &res.Evaluations)
	if err != nil {
		return res, info, err
	}

	totalSites := len(p.Edges)
	mergedConfig := func() *callgraph.Config {
		cfg := callgraph.NewConfig()
		for ci := range shards {
			cfg.Merge(bitsConfig(shards[ci].edges, shards[ci].bits))
		}
		return cfg
	}
	baseSize := residSize
	for ci := range shards {
		baseSize += shards[ci].size
	}
	out := autotune.Result{
		Config:   mergedConfig(),
		Size:     baseSize,
		InitSize: baseSize,
	}
	for round := 1; round <= rounds; round++ {
		type roundStep struct{ size, inlined, toggles int }
		steps := make([]roundStep, len(shards))
		step := func(ci int) error {
			sh := &shards[ci]
			if sh.cached != nil {
				e := sh.cached.round(round)
				sh.bits, sh.size = e.bits, e.size
				steps[ci] = roundStep{e.size, e.inlined, e.toggles}
				return nil
			}
			tr := sh.sess.Step()
			bits := configBits(sh.edges, sh.sess.Config())
			sh.bits, sh.size = bits, tr.Size
			sh.record.rounds = append(sh.record.rounds, tuneRound{
				size: tr.Size, inlined: tr.Inlined, toggles: tr.Toggles, bits: bits,
			})
			steps[ci] = roundStep{tr.Size, tr.Inlined, tr.Toggles}
			return nil
		}
		if err := eachComponent(len(shards), opts.workers(), step); err != nil {
			return res, info, err
		}
		size, inlined, toggles := residSize, 0, 0
		for _, st := range steps {
			size += st.size
			inlined += st.inlined
			toggles += st.toggles
		}
		out.Rounds = append(out.Rounds, autotune.RoundTrace{
			Round:      round,
			Size:       size,
			Inlined:    inlined,
			NotInlined: totalSites - inlined,
			Toggles:    toggles,
		})
		next := mergedConfig()
		if size < out.Size {
			out.Config, out.Size = next.Clone(), size
		}
		out.Final, out.FinalSize = next, size
		if toggles == 0 {
			break
		}
	}
	if out.Final == nil {
		out.Final, out.FinalSize = out.Config, out.Size
	}
	for ci := range shards {
		sh := &shards[ci]
		if sh.claim != nil {
			rec := sh.record
			sh.claim.fulfill(&rec)
			sh.claim = nil
		}
		if sh.sess != nil {
			res.Evaluations += sh.c.Evaluations()
			res.ConfigCache = res.ConfigCache.Add(sh.c.ConfigCacheStats())
			res.FuncCache = res.FuncCache.Add(sh.c.FuncCacheStats())
			info.ComponentsSolved++
		} else {
			info.ComponentsReplayed++
		}
	}
	out.Evaluations = res.Evaluations
	res.Result = out
	countInlined(p, out.Config, res.Components)
	return res, info, nil
}

// configBits packs cfg's labels over edges (ascending-site order) into a
// bitset — the plan-independent form cached results are stored in.
func configBits(edges []PlannedEdge, cfg *callgraph.Config) []uint64 {
	bits := make([]uint64, (len(edges)+63)/64)
	for i, e := range edges {
		if cfg.Inline(e.Site) {
			bits[i/64] |= 1 << (i % 64)
		}
	}
	return bits
}

// bitsConfig rebases a cached bitset onto the current plan's site IDs.
func bitsConfig(edges []PlannedEdge, bits []uint64) *callgraph.Config {
	cfg := callgraph.NewConfig()
	for i, e := range edges {
		if bits[i/64]&(1<<(i%64)) != 0 {
			cfg.Set(e.Site, true)
		}
	}
	return cfg
}
