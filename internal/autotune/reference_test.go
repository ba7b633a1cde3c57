package autotune

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/heuristic"
	"optinline/internal/ir"
	"optinline/internal/lang"
	"optinline/internal/workload"
)

// This file keeps the tuning loops that preceded the one Session engine,
// each with its own keep rule and best/final bookkeeping, as references:
// refTune (plain size rounds), refTuneBi (weighted and cycles-only rounds),
// refTuneExtended (group toggles, incremental rounds, exact-component
// polish) and refTuneObjective (memoized objective). TestSessionMatchesReference
// requires every tuner to reproduce them field for field, evaluation
// counters included.

func refTune(c *compile.Compiler, init *callgraph.Config, opts Options) Result {
	rounds := opts.Rounds
	if rounds <= 0 {
		rounds = 1
	}
	sites := c.Graph().Sites()

	base := callgraph.NewConfig()
	if init != nil {
		base = init.Clone()
	}
	sized := c.Sized(base)
	baseSize := sized.Size()

	res := Result{
		Config:   base.Clone(),
		Size:     baseSize,
		InitSize: baseSize,
	}
	for round := 1; round <= rounds; round++ {
		kept := refTuneRound(c, sized, baseSize, sites, opts.Workers)
		nextSized := c.Rebase(sized, kept)
		next, nextSize := nextSized.Config(), nextSized.Size()
		res.Rounds = append(res.Rounds, RoundTrace{
			Round:      round,
			Size:       nextSize,
			Inlined:    next.InlineCount(),
			NotInlined: len(sites) - next.InlineCount(),
			Toggles:    len(kept),
		})
		if nextSize < res.Size {
			res.Config, res.Size = next.Clone(), nextSize
		}
		res.Final, res.FinalSize = next, nextSize
		if len(kept) == 0 {
			break // fixpoint
		}
		sized, baseSize = nextSized, nextSize
	}
	if res.Final == nil {
		res.Final, res.FinalSize = res.Config, res.Size
	}
	res.Evaluations = c.Evaluations()
	return res
}

func refTuneRound(c *compile.Compiler, base *compile.Sized, baseSize int, sites []int, workers int) []int {
	toggles := make([][]int, len(sites))
	for i, s := range sites {
		toggles[i] = []int{s}
	}
	sizes := c.SizeDeltaParallel(base, toggles, workers)

	var kept []int
	for i, s := range sites {
		toInline := !base.Inline(s)
		keep := false
		if toInline {
			keep = sizes[i] <= baseSize
		} else {
			keep = sizes[i] < baseSize
		}
		if keep {
			kept = append(kept, s)
		}
	}
	return kept
}

func refTuneBi(c *compile.Compiler, pricer *compile.CyclePricer, weight func(int, int64) float64, init *callgraph.Config, opts Options) Result {
	rounds := opts.Rounds
	if rounds <= 0 {
		rounds = 1
	}
	sites := c.Graph().Sites()

	base := callgraph.NewConfig()
	if init != nil {
		base = init.Clone()
	}
	sized := c.Sized(base)
	cycled := pricer.Priced(base)
	baseCost := weight(sized.Size(), cycled.Cycles())

	res := Result{
		Config:     base.Clone(),
		Size:       sized.Size(),
		Cycles:     cycled.Cycles(),
		InitSize:   sized.Size(),
		InitCycles: cycled.Cycles(),
	}
	bestCost := baseCost
	for round := 1; round <= rounds; round++ {
		toggles := make([][]int, len(sites))
		for i, s := range sites {
			toggles[i] = []int{s}
		}
		sizes := c.SizeDeltaParallel(sized, toggles, opts.Workers)
		cycles := pricer.CyclesDeltaParallel(cycled, toggles, opts.Workers)

		var kept []int
		for i, s := range sites {
			cost := weight(sizes[i], cycles[i])
			toInline := !sized.Inline(s)
			keep := false
			if toInline {
				keep = cost <= baseCost
			} else {
				keep = cost < baseCost
			}
			if keep {
				kept = append(kept, s)
			}
		}
		nextSized := c.Rebase(sized, kept)
		nextCycled := pricer.Rebase(cycled, kept)
		next := nextSized.Config()
		nextCost := weight(nextSized.Size(), nextCycled.Cycles())
		res.Rounds = append(res.Rounds, RoundTrace{
			Round:      round,
			Size:       nextSized.Size(),
			Cycles:     nextCycled.Cycles(),
			Inlined:    next.InlineCount(),
			NotInlined: len(sites) - next.InlineCount(),
			Toggles:    len(kept),
		})
		if nextCost < bestCost {
			res.Config, res.Size, res.Cycles = next.Clone(), nextSized.Size(), nextCycled.Cycles()
			bestCost = nextCost
		}
		res.Final, res.FinalSize, res.FinalCycles = next, nextSized.Size(), nextCycled.Cycles()
		if len(kept) == 0 {
			break // fixpoint
		}
		sized, cycled, baseCost = nextSized, nextCycled, nextCost
	}
	if res.Final == nil {
		res.Final, res.FinalSize, res.FinalCycles = res.Config, res.Size, res.Cycles
	}
	res.Evaluations = c.Evaluations()
	return res
}

func refTuneExtended(c *compile.Compiler, init *callgraph.Config, opts ExtOptions) Result {
	rounds := opts.Rounds
	if rounds <= 0 {
		rounds = 1
	}
	g := c.Graph()
	allSites := g.Sites()

	base := callgraph.NewConfig()
	if init != nil {
		base = init.Clone()
	}
	sized := c.Sized(base)
	baseSize := sized.Size()
	res := Result{Config: base.Clone(), Size: baseSize, InitSize: baseSize}

	active := allSites // sites to evaluate this round
	for round := 1; round <= rounds; round++ {
		next, toggled := refExtRound(c, g, sized, baseSize, active, opts)
		nextSized := c.Rebase(sized, sized.Config().DiffSites(next))
		nextSize := nextSized.Size()
		res.Rounds = append(res.Rounds, RoundTrace{
			Round:      round,
			Size:       nextSize,
			Inlined:    next.InlineCount(),
			NotInlined: len(allSites) - next.InlineCount(),
			Toggles:    len(toggled),
		})
		if nextSize < res.Size {
			res.Config, res.Size = next.Clone(), nextSize
		}
		res.Final, res.FinalSize = next, nextSize
		if len(toggled) == 0 {
			break
		}
		sized, baseSize = nextSized, nextSize
		if opts.Incremental {
			active = refNeighbourhood(g, toggled)
		}
	}
	if res.Final == nil {
		res.Final, res.FinalSize = res.Config, res.Size
	}
	if opts.ExactComponents > 0 {
		polishComponents(c, &res, opts)
	}
	res.Evaluations = c.Evaluations()
	return res
}

func refExtRound(c *compile.Compiler, g *callgraph.Graph, base *compile.Sized, baseSize int, active []int, opts ExtOptions) (*callgraph.Config, []int) {
	toggleSets := make([][]int, 0, len(active)+8)
	for _, s := range active {
		toggleSets = append(toggleSets, []int{s})
	}
	type group struct {
		callee string
		sites  []int
	}
	var groups []group
	if opts.GroupCallees {
		activeSet := make(map[int]bool, len(active))
		for _, s := range active {
			activeSet[s] = true
		}
		byCallee := make(map[string][]int)
		for _, e := range g.Edges {
			callee := c.Module().Func(e.Callee)
			if callee == nil || callee.Exported {
				continue
			}
			byCallee[e.Callee] = append(byCallee[e.Callee], e.Site)
		}
		for callee, sites := range byCallee {
			if len(sites) < 2 {
				continue
			}
			var missing []int
			touchesActive := false
			for _, s := range sites {
				if !base.Inline(s) {
					missing = append(missing, s)
				}
				if activeSet[s] {
					touchesActive = true
				}
			}
			if len(missing) == 0 || !touchesActive {
				continue
			}
			groups = append(groups, group{callee: callee, sites: sites})
			toggleSets = append(toggleSets, missing)
		}
	}

	sizes := c.SizeDeltaParallel(base, toggleSets, opts.Workers)

	next := base.Config()
	var toggled []int
	for i, s := range active {
		toInline := !base.Inline(s)
		keep := false
		if toInline {
			keep = sizes[i] <= baseSize
		} else {
			keep = sizes[i] < baseSize
		}
		if keep {
			next.Set(s, toInline)
			toggled = append(toggled, s)
		}
	}
	for gi, grp := range groups {
		if sizes[len(active)+gi] < baseSize {
			for _, s := range grp.sites {
				if !next.Inline(s) {
					next.Set(s, true)
					toggled = append(toggled, s)
				}
			}
		}
	}
	return next, toggled
}

func refNeighbourhood(g *callgraph.Graph, toggled []int) []int {
	touched := make(map[string]bool)
	for _, s := range toggled {
		if e := g.Edge(s); e != nil {
			touched[e.Caller] = true
			touched[e.Callee] = true
		}
	}
	var out []int
	for _, e := range g.Edges {
		if touched[e.Caller] || touched[e.Callee] {
			out = append(out, e.Site)
		}
	}
	return out
}

func refTuneObjective(g *callgraph.Graph, obj Objective, init *callgraph.Config, opts Options) Result {
	rounds := opts.Rounds
	if rounds <= 0 {
		rounds = 1
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sites := g.Sites()

	var mu sync.Mutex
	memo := make(map[string]int64)
	var evals atomic.Int64
	eval := func(cfg *callgraph.Config) int64 {
		key := cfg.Key()
		mu.Lock()
		if v, ok := memo[key]; ok {
			mu.Unlock()
			return v
		}
		mu.Unlock()
		evals.Add(1)
		v := obj(cfg)
		mu.Lock()
		memo[key] = v
		mu.Unlock()
		return v
	}
	evalMany := func(cfgs []*callgraph.Config) []int64 {
		out := make([]int64, len(cfgs))
		w := workers
		if w > len(cfgs) {
			w = len(cfgs)
		}
		if w <= 1 {
			for i, cfg := range cfgs {
				out[i] = eval(cfg)
			}
			return out
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(cfgs) {
						return
					}
					out[i] = eval(cfgs[i])
				}
			}()
		}
		wg.Wait()
		return out
	}

	base := callgraph.NewConfig()
	if init != nil {
		base = init.Clone()
	}
	baseCost := eval(base)
	res := Result{
		Config:   base.Clone(),
		Size:     int(baseCost),
		InitSize: int(baseCost),
	}
	for round := 1; round <= rounds; round++ {
		cfgs := make([]*callgraph.Config, len(sites))
		for i, s := range sites {
			cfgs[i] = base.Clone().Set(s, !base.Inline(s))
		}
		costs := evalMany(cfgs)
		next := base.Clone()
		toggles := 0
		for i, s := range sites {
			toInline := !base.Inline(s)
			keep := false
			if toInline {
				keep = costs[i] <= baseCost
			} else {
				keep = costs[i] < baseCost
			}
			if keep {
				next.Set(s, toInline)
				toggles++
			}
		}
		nextCost := eval(next)
		res.Rounds = append(res.Rounds, RoundTrace{
			Round:      round,
			Size:       int(nextCost),
			Inlined:    next.InlineCount(),
			NotInlined: len(sites) - next.InlineCount(),
			Toggles:    toggles,
		})
		if int(nextCost) < res.Size {
			res.Config, res.Size = next.Clone(), int(nextCost)
		}
		res.Final, res.FinalSize = next, int(nextCost)
		if toggles == 0 {
			break
		}
		base, baseCost = next, nextCost
	}
	if res.Final == nil {
		res.Final, res.FinalSize = res.Config, res.Size
	}
	res.Evaluations = evals.Load()
	return res
}

// referenceUnits returns one unit per SPEC-like profile (its file with the
// most candidate edges, up to 16) and the modules of the first n generated
// MinC sources.
func referenceUnits(t *testing.T, n int) []*ir.Module {
	t.Helper()
	var mods []*ir.Module
	for _, p := range workload.SPECProfiles() {
		var best *ir.Module
		bestEdges := 0
		for _, f := range workload.Generate(p).Files {
			if e := len(compile.New(f.Module, codegen.TargetX86).Graph().Edges); e > bestEdges && e <= 16 {
				best, bestEdges = f.Module, e
			}
		}
		if best != nil {
			mods = append(mods, best)
		}
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		m, err := lang.Compile(fmt.Sprintf("gen%02d", seed), lang.GenerateSource(seed, lang.GenOptions{}))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mods = append(mods, m)
	}
	return mods
}

// sameResult fails unless every Result field agrees.
func sameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Config.Key() != want.Config.Key() || got.Final.Key() != want.Final.Key() {
		t.Fatalf("%s: configurations %v/%v, reference %v/%v", label, got.Config, got.Final, want.Config, want.Final)
	}
	type scalars struct {
		size, initSize, finalSize       int
		cycles, initCycles, finalCycles int64
		evaluations                     int64
	}
	of := func(r Result) scalars {
		return scalars{r.Size, r.InitSize, r.FinalSize, r.Cycles, r.InitCycles, r.FinalCycles, r.Evaluations}
	}
	if g, w := of(got), of(want); g != w {
		t.Fatalf("%s: result %+v, reference %+v", label, g, w)
	}
	if len(got.Rounds) != len(want.Rounds) {
		t.Fatalf("%s: %d rounds, reference %d", label, len(got.Rounds), len(want.Rounds))
	}
	for i := range got.Rounds {
		if got.Rounds[i] != want.Rounds[i] {
			t.Fatalf("%s round %d: %+v, reference %+v", label, i+1, got.Rounds[i], want.Rounds[i])
		}
	}
}

// TestSessionMatchesReference runs every tuner and its reference loop over
// each unit, from the clean slate and from -Os, under every extension
// combination, three cycle weights, the cycles-only and objective tuners,
// and 1 and 4 workers. Each side runs the whole sequence on its own
// compiler (and cycle pricer), so evaluation counters and caches see the
// same request history on both. -short and -race keep a few units.
func TestSessionMatchesReference(t *testing.T) {
	mods := referenceUnits(t, 30)
	if testing.Short() || raceEnabled {
		mods = append(mods[:4:4], mods[20:24]...)
	}
	const rounds = 4
	cycleOpts := compile.CycleOptions{CacheBytes: 512}
	for _, m := range mods {
		a, b := compile.New(m, codegen.TargetX86), compile.New(m, codegen.TargetX86)
		if len(a.Graph().Edges) == 0 {
			continue
		}
		osCfg := heuristic.OsConfig(a.Module(), a.Graph())
		pa, _, errA := a.ProfileBaseline("entry", []int64{7}, 2_000_000, cycleOpts)
		pb, _, errB := b.ProfileBaseline("entry", []int64{7}, 2_000_000, cycleOpts)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: profiling differs between twin compilers: %v, %v", m.Name, errA, errB)
		}
		sizeOf := func(c *compile.Compiler) Objective {
			return func(cfg *callgraph.Config) int64 { return int64(c.Size(cfg)) }
		}
		for _, in := range []struct {
			name string
			cfg  *callgraph.Config
		}{{"clean", nil}, {"os", osCfg}} {
			for _, workers := range []int{1, 4} {
				opts := Options{Rounds: rounds, Workers: workers}
				label := fmt.Sprintf("%s init=%s workers=%d", m.Name, in.name, workers)
				sameResult(t, label+" Tune", Tune(a, in.cfg, opts), refTune(b, in.cfg, opts))
				for ext := 0; ext < 8; ext++ {
					eo := ExtOptions{Options: opts, GroupCallees: ext&1 != 0, Incremental: ext&2 != 0}
					if ext&4 != 0 {
						eo.ExactComponents = 256
					}
					sameResult(t, fmt.Sprintf("%s ext=%+v", label, eo),
						TuneExtended(a, in.cfg, eo), refTuneExtended(b, in.cfg, eo))
				}
				sameResult(t, label+" objective",
					TuneObjective(a.Graph(), sizeOf(a), in.cfg, opts), refTuneObjective(b.Graph(), sizeOf(b), in.cfg, opts))
				if errA != nil {
					continue // not interpretable within fuel: no cycle objective
				}
				for _, lambda := range []float64{0, 0.1, 1} {
					sameResult(t, fmt.Sprintf("%s lambda=%g", label, lambda),
						TuneWeighted(a, pa, lambda, in.cfg, opts),
						refTuneBi(b, pb, func(size int, cycles int64) float64 {
							return float64(size) + lambda*float64(cycles)
						}, in.cfg, opts))
				}
				sameResult(t, label+" cycles", TuneCycles(a, pa, in.cfg, opts),
					refTuneBi(b, pb, func(_ int, cycles int64) float64 { return float64(cycles) }, in.cfg, opts))
			}
		}
	}
}
