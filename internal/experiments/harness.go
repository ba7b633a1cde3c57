// Package experiments regenerates every table and figure of the paper's
// evaluation against the synthetic corpus. Each experiment renders the same
// rows/series the paper reports; EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"optinline/internal/autotune"
	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/heuristic"
	"optinline/internal/interp"
	"optinline/internal/search"
	"optinline/internal/stats"
	"optinline/internal/workload"
)

// Config scales and parallelizes an experiment run.
type Config struct {
	// Scale multiplies the workload size; 1.0 is the full corpus, benches
	// use smaller values. Values <= 0 default to 1.0.
	Scale float64
	// Workers for parallel per-file work; <= 0 means GOMAXPROCS.
	Workers int
	// ExhaustiveCap bounds the recursive search space of files included in
	// the exhaustive-search experiments; 0 defaults to 1<<14.
	ExhaustiveCap uint64
	// Rounds for round-based autotuning; 0 defaults to 4.
	Rounds int
	// Checked runs every compiler the experiments build in checked
	// compilation mode (compile.Options.Check): the reference evaluator,
	// with invariants verified after every inline step and opt pass, no
	// per-function memo, delta engines or search pruning, and linked
	// modules solved on one merged compiler. Much slower; output must be
	// byte-identical to the default run (inlinebench -check).
	Checked bool
	// FnCache, when non-nil, is the content-addressed cache shared by every
	// compiler in the corpus — typically compile.OpenFnCache(dir) so sizes
	// persist across runs. Nil creates a fresh in-memory cache, still
	// shared corpus-wide so duplicated helpers compile once per run.
	FnCache *compile.FnCache
}

func (c Config) normalized() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ExhaustiveCap == 0 {
		c.ExhaustiveCap = 1 << 14
	}
	if c.Rounds <= 0 {
		c.Rounds = 4
	}
	return c
}

// Result is a rendered experiment.
type Result struct {
	ID    string
	Title string
	Text  string
}

// fileData caches everything computed about one translation unit.
type fileData struct {
	bench string
	file  workload.File
	comp  *compile.Compiler
	graph *callgraph.Graph
	edges int

	noInlineSize int
	heurCfg      *callgraph.Config
	heurSize     int

	once  sync.Once // guards tune
	clean autotune.Result
	init  autotune.Result

	optOnce sync.Once
	opt     search.Result
	optOK   bool

	profOnce sync.Once
	prof     *interp.Profile // baseline profile; nil if not interpretable
	priceMu  sync.Mutex
	pricers  map[int]*compile.CyclePricer // by i-cache capacity
}

// tuned runs (and caches) the two round-based tuning sessions.
func (fd *fileData) tuned(cfg Config) (clean, init autotune.Result) {
	fd.once.Do(func() {
		opts := autotune.Options{Rounds: cfg.Rounds, Workers: cfg.Workers}
		fd.clean = autotune.Tune(fd.comp, nil, opts)
		fd.init = autotune.Tune(fd.comp, fd.heurCfg, opts)
	})
	return fd.clean, fd.init
}

// profile interprets the no-inline baseline once (cached), returning nil
// for files without an entry root or whose dynamic call tree exceeds the
// fuel budget — the same skip rule as the Figure 19 measurement.
func (fd *fileData) profile() *interp.Profile {
	fd.profOnce.Do(func() {
		m, err := fd.comp.Build(callgraph.NewConfig())
		if err != nil || m.Func("entry") == nil {
			return
		}
		_, p, err := interp.Collect(m, "entry", []int64{7}, interp.Options{Fuel: 20_000_000})
		if err != nil {
			return
		}
		fd.prof = p
		fd.pricers = make(map[int]*compile.CyclePricer)
	})
	return fd.prof
}

// cyclePricer returns (and caches) a cycle pricer over the baseline profile
// at the given i-cache capacity. The profile's frame sequence is geometry-
// independent, so one interpretation backs every capacity.
func (fd *fileData) cyclePricer(cacheBytes int) *compile.CyclePricer {
	if fd.profile() == nil {
		return nil
	}
	fd.priceMu.Lock()
	defer fd.priceMu.Unlock()
	if p, ok := fd.pricers[cacheBytes]; ok {
		return p
	}
	p, err := fd.comp.NewCyclePricer(fd.prof, compile.CycleOptions{CacheBytes: cacheBytes})
	if err != nil {
		return nil
	}
	fd.pricers[cacheBytes] = p
	return p
}

// optimal runs (and caches) the exhaustive search, bounded by the cap.
func (fd *fileData) optimal(cfg Config) (search.Result, bool) {
	fd.optOnce.Do(func() {
		fd.opt, fd.optOK = search.Optimal(fd.comp, search.Options{
			Workers:  cfg.Workers,
			MaxSpace: cfg.ExhaustiveCap,
		})
	})
	return fd.opt, fd.optOK
}

// roundSize returns the size after round r (1-based) of a session, falling
// back to the initial size when the session reached a fixpoint earlier.
func roundSize(res autotune.Result, r int) int {
	if len(res.Rounds) == 0 {
		return res.InitSize
	}
	if r > len(res.Rounds) {
		r = len(res.Rounds)
	}
	return res.Rounds[r-1].Size
}

// bestUpTo returns the best size over the init and rounds 1..r.
func bestUpTo(res autotune.Result, r int) int {
	best := res.InitSize
	for i := 0; i < r && i < len(res.Rounds); i++ {
		if res.Rounds[i].Size < best {
			best = res.Rounds[i].Size
		}
	}
	return best
}

// Harness owns the generated corpus and its per-file caches.
type Harness struct {
	cfg     Config
	suite   []workload.Benchmark
	files   []*fileData            // non-trivial files only
	byName  map[string][]*fileData // benchmark -> files
	order   []string               // benchmark order
	fncache *compile.FnCache       // shared across every file's compiler
}

// NewHarness generates the corpus and precomputes the cheap per-file data
// (call graph, no-inline size, heuristic configuration and size).
func NewHarness(cfg Config) *Harness {
	cfg = cfg.normalized()
	h := &Harness{cfg: cfg, byName: make(map[string][]*fileData), fncache: cfg.FnCache}
	if h.fncache == nil {
		h.fncache = compile.NewFnCache()
	}
	profiles := workload.SPECProfiles()
	for _, p := range profiles {
		p.Files = scaleInt(p.Files, cfg.Scale)
		p.TotalEdges = scaleInt(p.TotalEdges, cfg.Scale)
		bench := workload.Generate(p)
		h.suite = append(h.suite, bench)
		h.order = append(h.order, bench.Name)
	}
	type job struct {
		bench string
		file  workload.File
	}
	var jobs []job
	for _, b := range h.suite {
		for _, f := range b.Files {
			jobs = append(jobs, job{b.Name, f})
		}
	}
	results := make([]*fileData, len(jobs))
	parallelFor(len(jobs), cfg.Workers, func(i int) {
		f := jobs[i].file
		comp := compile.NewWithOptions(f.Module, codegen.TargetX86, h.compileOptions())
		g := comp.Graph()
		if len(g.Edges) == 0 {
			return // trivial w.r.t. inlining, as in the paper's 746 files
		}
		hc := heuristic.OsConfig(comp.Module(), g)
		results[i] = &fileData{
			bench:        jobs[i].bench,
			file:         f,
			comp:         comp,
			graph:        g,
			edges:        len(g.Edges),
			noInlineSize: comp.Size(callgraph.NewConfig()),
			heurCfg:      hc,
			heurSize:     comp.Size(hc),
		}
	})
	for _, fd := range results {
		if fd == nil {
			continue
		}
		h.files = append(h.files, fd)
		h.byName[fd.bench] = append(h.byName[fd.bench], fd)
	}
	return h
}

// compileOptions configures every compiler the harness builds — corpus
// files, case studies, linked modules — so the reference switch and the
// shared content cache reach all of them.
func (h *Harness) compileOptions() compile.Options {
	return compile.Options{Check: h.cfg.Checked, FnCache: h.fncache}
}

// Benchmarks returns the benchmark names in canonical order.
func (h *Harness) Benchmarks() []string { return h.order }

// ConfigCacheStats aggregates the whole-configuration cache counters over
// every compiler in the corpus.
func (h *Harness) ConfigCacheStats() stats.CacheStats {
	var total stats.CacheStats
	for _, fd := range h.files {
		total = total.Add(fd.comp.ConfigCacheStats())
	}
	return total
}

// FuncCacheStats aggregates the per-function memo cache counters over
// every compiler in the corpus.
func (h *Harness) FuncCacheStats() stats.CacheStats {
	var total stats.CacheStats
	for _, fd := range h.files {
		total = total.Add(fd.comp.FuncCacheStats())
	}
	return total
}

// FnCache returns the content-addressed per-function cache shared by the
// corpus compilers (for Save after a -cache-dir run).
func (h *Harness) FnCache() *compile.FnCache { return h.fncache }

// DeltaStats aggregates the incremental-evaluation counters over every
// compiler in the corpus.
func (h *Harness) DeltaStats() stats.DeltaStats {
	var total stats.DeltaStats
	for _, fd := range h.files {
		total = total.Add(fd.comp.DeltaStats())
	}
	return total
}

// PruneStats aggregates the search branch-and-bound counters over every
// file whose optimal search has run. Files never searched (space over the
// cap, or the experiment set did not touch them) contribute nothing.
func (h *Harness) PruneStats() search.PruneStats {
	var total search.PruneStats
	for _, fd := range h.files {
		if fd.optOK {
			total = total.Add(fd.opt.Prune)
		}
	}
	return total
}

// CycleStats aggregates the cycle-pricer counters over every pricer the
// experiments created.
func (h *Harness) CycleStats() compile.CyclePricerStats {
	var total compile.CyclePricerStats
	for _, fd := range h.files {
		fd.priceMu.Lock()
		for _, p := range fd.pricers {
			total = total.Add(p.Stats())
		}
		fd.priceMu.Unlock()
	}
	return total
}

// Files returns every non-trivial file.
func (h *Harness) Files() []*fileData { return h.files }

// CheckFailures returns every checked-mode invariant violation latched by
// the corpus compilers (empty unless Config.Checked was set), formatted as
// "file: error". Size evaluations map build failures to InfSize, so this is
// the only place a checked experiment run surfaces what broke.
func (h *Harness) CheckFailures() []string {
	var out []string
	for _, fd := range h.files {
		if err := fd.comp.CheckFailure(); err != nil {
			out = append(out, fmt.Sprintf("%s: %v", fd.file.Name, err))
		}
	}
	return out
}

// exhaustiveSet returns the files whose recursive space fits the cap, with
// their optimal results computed.
func (h *Harness) exhaustiveSet() []*fileData {
	var out []*fileData
	var mu sync.Mutex
	parallelFor(len(h.files), h.cfg.Workers, func(i int) {
		fd := h.files[i]
		if _, ok := fd.optimal(h.cfg); ok {
			mu.Lock()
			out = append(out, fd)
			mu.Unlock()
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].file.Name < out[j].file.Name })
	return out
}

// ensureTuned tunes every file (cached), in parallel across files.
func (h *Harness) ensureTuned() {
	parallelFor(len(h.files), h.cfg.Workers, func(i int) {
		h.files[i].tuned(h.cfg)
	})
}

func scaleInt(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 1 {
		v = 1
	}
	return v
}

func parallelFor(n, workers int, fn func(i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
}

func pct(num, den float64) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", num/den*100)
}
