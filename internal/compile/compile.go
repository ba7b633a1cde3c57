// Package compile is the driver that turns an inlining configuration into a
// binary size: clone → inline → optimize → label-based dead-function
// elimination → measure. It memoizes sizes at two levels — by canonical
// whole-module configuration key, and per function keyed by (module
// fingerprint, function, inline closure labels; see memo.go) — and is safe
// for concurrent use, which the search and the autotuner exploit (the paper calls both "embarrassingly parallel"). Both
// caches are single-flight: concurrent requests for the same key share one
// compilation, which also makes evaluation counters schedule-independent.
package compile

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"optinline/internal/analysis"
	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/diag"
	"optinline/internal/inline"
	"optinline/internal/ir"
	"optinline/internal/opt"
	"optinline/internal/stats"
)

// InfSize is returned for configurations that fail to compile (the inliner's
// growth bound tripped); it compares worse than any real size.
const InfSize = math.MaxInt32

// Options configures a Compiler beyond its module and target.
type Options struct {
	// Check enables checked compilation mode, the -verify-each analogue:
	// ir.Verify runs after every individual inline expansion and after every
	// optimization pass that changed a function, and the static-analyzer
	// suite (internal/analysis) audits the final module with its
	// post-pipeline invariants escalated to errors. The first violation
	// aborts the build with a *CheckError naming the exact stage and pass.
	//
	// Checked mode is also the reference evaluator every fast path is
	// compared against: it bypasses the per-function memo (and with it the
	// content-addressed function cache) and the delta engines for size and
	// cycles — those paths skip whole-module pipelines, which is precisely
	// the work being checked — so every configuration is compiled fresh.
	// It is substantially slower; it exists for tests, fuzzing, and the
	// CLIs' -check flags, not for production search runs.
	Check bool

	// FnCache, when non-nil, is the content-addressed per-function cache
	// (fncache.go) this compiler shares with others. Content keys are
	// module-independent, so one cache may — and for corpus runs should —
	// be shared across every file's compiler, letting structurally
	// identical helpers compile once for the whole corpus. Nil gives the
	// compiler a private in-memory cache, which still shares sizes across
	// configurations of its own module.
	FnCache *FnCache
}

// Compiler evaluates inlining configurations against a fixed base module.
type Compiler struct {
	base        *ir.Module
	graph       *callgraph.Graph
	target      codegen.Target
	fingerprint uint64

	sizes *configTable[int]

	memo    *memoState
	check   bool
	fncache *FnCache

	checkMu  sync.Mutex
	checkErr error // first *CheckError observed by a cached Size path

	evals      atomic.Int64
	hits       atomic.Int64
	errors     atomic.Int64
	funcHits   atomic.Int64
	funcMisses atomic.Int64
	deltaEvals atomic.Int64
	deltaDirty atomic.Int64
}

// CheckError is a checked-mode invariant violation, attributed to the first
// stage and pass that broke it.
type CheckError struct {
	Stage string    // "input", "inline", "dead-function-elimination", "opt", "post-pipeline"
	Pass  string    // inline step, opt pass name, or "analysis" — empty when the stage has no finer unit
	Func  string    // function being transformed, when known
	Diags diag.List // error-severity analyzer findings (Stage "post-pipeline")
	Err   error
}

func (e *CheckError) Error() string {
	msg := fmt.Sprintf("checked mode: stage %q", e.Stage)
	if e.Pass != "" {
		msg += fmt.Sprintf(", pass %q", e.Pass)
	}
	if e.Func != "" {
		msg += fmt.Sprintf(", func %s", e.Func)
	}
	return msg + ": " + e.Err.Error()
}

func (e *CheckError) Unwrap() error { return e.Err }

// configTable is the single-flight whole-configuration cache: Compiler
// keeps sizes in one, CyclePricer keeps cycles in another. Concurrent
// requests for one configuration share one computation, which is what
// makes evaluation counters schedule-independent.
//
// The key is Config.CacheKey, the raw bitset words. Retention matters as
// much as speed here: the table holds one entry per configuration a search
// or tuner ever priced, hundreds of thousands on big runs. So a finished
// entry is just its value under a compact pointer-free key, an in-flight
// computation is just its key in a set, and a caller that finds its key in
// flight waits on the table's one condition, which every finished
// computation broadcasts.
type configTable[V any] struct {
	mu       sync.Mutex
	finished sync.Cond // L is mu
	done     map[string]V
	inflight map[string]struct{}
}

func newConfigTable[V any]() *configTable[V] {
	t := &configTable[V]{done: make(map[string]V), inflight: make(map[string]struct{})}
	t.finished.L = &t.mu
	return t
}

// get returns cfg's value and whether the table served it (a finished
// entry, or another caller's computation it waited for). On a miss it runs
// compute, stores the result and wakes the waiters. A hit on a finished
// entry does not allocate, and a miss allocates only the key it keeps.
func (t *configTable[V]) get(cfg *callgraph.Config, compute func() V) (V, bool) {
	var buf [64]byte
	key := cfg.AppendCacheKey(buf[:0])
	t.mu.Lock()
	for {
		if v, ok := t.done[string(key)]; ok {
			t.mu.Unlock()
			return v, true
		}
		if _, ok := t.inflight[string(key)]; !ok {
			break
		}
		t.finished.Wait()
	}
	k := string(key)
	t.inflight[k] = struct{}{}
	t.mu.Unlock()

	v := compute()
	t.mu.Lock()
	t.done[k] = v
	delete(t.inflight, k)
	t.mu.Unlock()
	t.finished.Broadcast()
	return v, false
}

// New prepares a compiler for the module. The module is cloned defensively;
// callers may keep using the original. Site IDs are assigned if absent.
func New(m *ir.Module, target codegen.Target) *Compiler {
	return NewWithOptions(m, target, Options{})
}

// NewWithOptions is New with explicit options (checked compilation mode).
func NewWithOptions(m *ir.Module, target codegen.Target, opts Options) *Compiler {
	base := m.Clone()
	base.AssignSites()
	g := callgraph.Build(base)
	fc := opts.FnCache
	if fc == nil {
		fc = NewFnCache()
	}
	return &Compiler{
		base:        base,
		graph:       g,
		target:      target,
		fingerprint: base.Fingerprint(),
		sizes:       newConfigTable[int](),
		memo:        buildMemo(base, g),
		fncache:     fc,
		check:       opts.Check,
	}
}

// Checked reports whether checked compilation mode is enabled.
func (c *Compiler) Checked() bool { return c.check }

// CheckFailure returns the first checked-mode invariant violation observed
// by a Size evaluation, or nil. Size must map build failures to InfSize to
// stay a total function for the search algorithms, so checked-mode
// violations are latched here for the caller to inspect after a run.
func (c *Compiler) CheckFailure() error {
	c.checkMu.Lock()
	defer c.checkMu.Unlock()
	return c.checkErr
}

func (c *Compiler) recordCheckFailure(err error) {
	c.checkMu.Lock()
	if c.checkErr == nil {
		c.checkErr = err
	}
	c.checkMu.Unlock()
}

// FnCache returns the content-addressed cache this compiler resolves
// per-function sizes in (its own private one unless Options.FnCache
// injected a shared instance).
func (c *Compiler) FnCache() *FnCache { return c.fncache }

// Fingerprint returns the base module's fingerprint; per-function cache
// entries are keyed under it.
func (c *Compiler) Fingerprint() uint64 { return c.fingerprint }

// Graph returns the inlining-candidate call graph of the base module.
func (c *Compiler) Graph() *callgraph.Graph { return c.graph }

// Module returns the (site-assigned) base module.
func (c *Compiler) Module() *ir.Module { return c.base }

// Target returns the codegen target being measured.
func (c *Compiler) Target() codegen.Target { return c.target }

// Build runs the full pipeline for a configuration and returns the
// optimized module. It does not consult or fill the size cache. In checked
// mode the pipeline verifies after every inline expansion and every opt
// pass, and any violation is returned as a *CheckError naming the stage and
// pass that introduced it.
func (c *Compiler) Build(cfg *callgraph.Config) (*ir.Module, error) {
	m := c.base.Clone()
	if c.check {
		if err := m.Verify(); err != nil {
			return nil, &CheckError{Stage: "input", Err: err}
		}
	}
	iopts := inline.Options{}
	if c.check {
		iopts.Check = func(string) error { return m.Verify() }
	}
	if err := inline.Apply(m, cfg, iopts); err != nil {
		var se *inline.StepError
		if errors.As(err, &se) {
			return nil, &CheckError{Stage: "inline", Pass: se.Step, Err: se.Err}
		}
		return nil, err
	}
	// Label-based dead-function elimination: an internal function whose
	// every original call edge is labeled inline is removable. This
	// predicate depends only on labels of edges incident to the function,
	// which keeps independent components exactly independent (DESIGN.md).
	removable := c.graph.CalleesAllInline(cfg)
	opt.RemoveDeadFunctions(m, func(name string) bool { return removable[name] })
	if !c.check {
		opt.Module(m)
		return m, nil
	}

	if err := m.Verify(); err != nil {
		return nil, &CheckError{Stage: "dead-function-elimination", Err: err}
	}
	// Per-pass verification: structural invariants plus the mid-pipeline
	// analyzer suite (error severity only; Warning-level findings like
	// not-yet-folded constant conditions are expected mid-flight).
	perPass := func(pass string, f *ir.Function) error {
		if err := f.Verify(); err != nil {
			return err
		}
		if ds := analysis.RunFunction(m, f, analysis.Options{}).MinSeverity(diag.Error); len(ds) > 0 {
			return fmt.Errorf("analyzer %s: %s", ds[0].Analyzer, ds[0].Message)
		}
		return nil
	}
	if _, err := opt.ModuleChecked(m, perPass); err != nil {
		var pe *opt.PassError
		if errors.As(err, &pe) {
			return nil, &CheckError{Stage: "opt", Pass: pe.Pass, Func: pe.Func, Err: pe.Err}
		}
		return nil, &CheckError{Stage: "opt", Err: err}
	}
	// Post-pipeline audit: the full analyzer suite with the fixpoint
	// guarantees (no unreachable blocks, no constant conditions, no dead
	// pure instructions, no unused block parameters) escalated to errors.
	if err := m.Verify(); err != nil {
		return nil, &CheckError{Stage: "post-pipeline", Err: err}
	}
	if ds := analysis.RunModule(m, analysis.Options{PostPipeline: true}).MinSeverity(diag.Error); len(ds) > 0 {
		return nil, &CheckError{
			Stage: "post-pipeline",
			Pass:  "analysis",
			Diags: ds,
			Err:   fmt.Errorf("%d analyzer error(s), first: %s", len(ds), ds[0]),
		}
	}
	return m, nil
}

// Size returns the .text size of the configuration, compiling at most once
// per canonical configuration. Concurrent calls for the same configuration
// share one compilation (single-flight), so the evaluation counter counts
// distinct configurations regardless of scheduling.
func (c *Compiler) Size(cfg *callgraph.Config) int {
	size, hit := c.sizes.get(cfg, func() int { return c.measure(cfg) })
	if hit {
		c.hits.Add(1)
	}
	return size
}

func (c *Compiler) measure(cfg *callgraph.Config) int {
	c.evals.Add(1)
	// Checked mode forces the full-pipeline path: the memo engine skips
	// whole-module compilations, which is exactly the work being checked.
	if !c.check {
		return c.measureMemo(cfg)
	}
	m, err := c.Build(cfg)
	if err != nil {
		var ce *CheckError
		if errors.As(err, &ce) {
			c.recordCheckFailure(err)
		}
		c.errors.Add(1)
		return InfSize
	}
	return codegen.ModuleSize(m, c.target)
}

// Evaluations returns the number of distinct configurations evaluated so
// far (configuration-cache misses).
func (c *Compiler) Evaluations() int64 { return c.evals.Load() }

// CacheHits returns the number of size requests served from the
// configuration cache.
func (c *Compiler) CacheHits() int64 { return c.hits.Load() }

// Errors returns the number of configurations that failed to compile.
func (c *Compiler) Errors() int64 { return c.errors.Load() }

// ConfigCacheStats returns the whole-configuration cache counters.
func (c *Compiler) ConfigCacheStats() stats.CacheStats {
	return stats.CacheStats{Hits: c.hits.Load(), Misses: c.evals.Load()}
}

// FuncCacheStats returns the per-function memo cache counters; a hit means
// a function's compilation was skipped because another configuration
// already compiled it with the same inline-closure labels.
func (c *Compiler) FuncCacheStats() stats.CacheStats {
	return stats.CacheStats{Hits: c.funcHits.Load(), Misses: c.funcMisses.Load()}
}

// DeltaStats returns the delta engine's counters: how many configurations
// were priced incrementally and how many dirty functions those prices
// touched in total (everything else was reused from the base handle).
func (c *Compiler) DeltaStats() stats.DeltaStats {
	return stats.DeltaStats{Evals: c.deltaEvals.Load(), DirtyFuncs: c.deltaDirty.Load()}
}
