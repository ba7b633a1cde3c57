// Package server implements inlined, the long-running inlining service:
// the four batch CLIs' shared core (parse → compile → search/tune/measure)
// behind a stdlib net/http daemon. One process-wide content-addressed
// FnCache is shared by every request, so structurally identical helpers
// compile once across all clients, modules, and — with a cache directory —
// across daemon restarts; a bounded job queue budgets each request's
// worker goroutines against a global token pool; and a drain gate turns
// SIGTERM into "finish in-flight work, 503 everything new".
//
// Work endpoints answer with *deterministic* bodies only (pure functions
// of the request), which is what lets the concurrency test tier assert
// that responses under 16-way client fire are byte-identical to a
// single-threaded run. Volatile counters are on GET /stats.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"optinline/internal/analysis/interproc"
	"optinline/internal/autotune"
	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/diag"
	"optinline/internal/heuristic"
	"optinline/internal/link"
	"optinline/internal/search"
	"optinline/internal/source"
	"optinline/internal/stats"
)

// Config configures a Server. The zero value is usable: GOMAXPROCS job
// tokens, a 64-request queue bound, a private in-memory FnCache.
type Config struct {
	// Jobs is the global worker-token pool: the sum of every in-flight
	// request's worker budget never exceeds it. <= 0 selects GOMAXPROCS.
	Jobs int
	// MaxQueue bounds how many requests may wait for tokens; beyond it new
	// work is answered 503 immediately. 0 selects 64; negative means no
	// waiting at all (reject whenever the token pool is busy).
	MaxQueue int
	// RequestTimeout bounds each request's queue wait (and injected delay).
	// Compute is not cancellable mid-search, so a request that has started
	// running always runs to completion; the timeout keeps *queued*
	// requests from waiting unboundedly. <= 0 selects 2 minutes.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies. <= 0 selects 8 MiB.
	MaxBodyBytes int64
	// MaxCompilers bounds the per-module compiler pool (LRU over a source
	// hash); a compiler carries its module's whole-config and closure
	// caches, so the pool is what makes replaying a corpus cheap. <= 0
	// selects 128.
	MaxCompilers int
	// DefaultMaxSpace caps /search (and inline=optimal) recursive spaces
	// when the request does not choose. <= 0 selects 1<<16.
	DefaultMaxSpace uint64
	// FnCache is the process-wide content cache; nil builds a private
	// in-memory one. Pass compile.OpenFnCacheWith(...) for persistence.
	FnCache *compile.FnCache
	// AllowDelay honors the requests' delayMs field (synthetic latency for
	// load and drain testing). Off by default.
	AllowDelay bool
	// MaxLinkSessions bounds the incremental re-link session registry
	// behind /link (FIFO eviction). <= 0 selects 32.
	MaxLinkSessions int
	// Check serves every request from the reference evaluator: checked
	// compilers (compile.Options.Check), /analyze summaries computed from
	// scratch instead of through the shared summary cache, and /link
	// queries answered by a cold link of the session's units instead of
	// the shared component result cache. Response bodies must be
	// byte-identical to a default server's.
	Check bool
}

func (c Config) normalized() Config {
	if c.Jobs <= 0 {
		c.Jobs = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	} else if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxCompilers <= 0 {
		c.MaxCompilers = 128
	}
	if c.DefaultMaxSpace == 0 {
		c.DefaultMaxSpace = 1 << 16
	}
	if c.FnCache == nil {
		c.FnCache = compile.NewFnCache()
	}
	if c.MaxLinkSessions <= 0 {
		c.MaxLinkSessions = 32
	}
	return c
}

// drainGate admits request work while the server is live and lets Drain
// wait for the in-flight count to reach zero. A plain WaitGroup would race
// Add against Wait; the mutex makes "draining?" and "admit" one atomic
// decision.
type drainGate struct {
	mu       sync.Mutex
	draining bool
	active   int
	idle     chan struct{} // non-nil while a Drain waits for active == 0
}

func (g *drainGate) Enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return false
	}
	g.active++
	return true
}

func (g *drainGate) Exit() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.active--
	if g.active == 0 && g.idle != nil {
		close(g.idle)
		g.idle = nil
	}
}

func (g *drainGate) Draining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// beginDrain flips the gate and returns a channel closed when in-flight
// work reaches zero (immediately closed if already idle).
func (g *drainGate) beginDrain() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.draining = true
	if g.idle == nil {
		g.idle = make(chan struct{})
		if g.active == 0 {
			ch := g.idle
			close(ch)
			g.idle = nil
			return ch
		}
	}
	return g.idle
}

// compilerEntry is a single-flight slot of the per-module compiler pool.
type compilerEntry struct {
	done chan struct{}
	comp *compile.Compiler
	err  error
	elem *poolElem
}

// poolElem is an intrusive LRU node (a tiny hand-rolled list keeps the
// entry → node mapping allocation-free and avoids interface casts).
type poolElem struct {
	key        string
	prev, next *poolElem
}

// Server is the inlined daemon core. Construct with New; serve
// s.Handler() on any net/http server.
type Server struct {
	cfg     Config
	fncache *compile.FnCache
	ipcache *interproc.Cache // nil in checked mode: summaries from scratch
	queue   *jobQueue
	gate    drainGate
	mux     *http.ServeMux
	started time.Time

	poolMu    sync.Mutex
	pool      map[string]*compilerEntry
	lruHead   *poolElem // least recently used
	lruTail   *poolElem // most recently used
	poolLive  int
	poolBuilt int64
	poolHits  int64
	poolEvict int64
	// retired accumulates the cache counters of evicted compilers so
	// /stats aggregates never go backwards.
	retiredConfig stats.CacheStats
	retiredFunc   stats.CacheStats
	retiredDelta  stats.DeltaStats
	retiredEvals  int64

	// cycleMu guards the cycle-pricer pool behind cycle-aware /tune
	// objectives: cached baseline profiles keyed by compiler + profiling
	// parameters, FIFO-bounded, with evicted pricers' counters folded into
	// retiredCycle so /stats aggregates never go backwards.
	cycleMu      sync.Mutex
	cyclePricers map[string]*cyclePricerEntry
	cycleOrder   []string
	cycleBuilt   int64
	cycleHits    int64
	cycleEvict   int64
	retiredCycle compile.CyclePricerStats

	epMu sync.Mutex
	eps  map[string]*endpointCounters

	// linkReg registers the incremental re-link sessions behind /link;
	// relinkCache is the content-keyed component result cache they share.
	linkReg     linkRegistry
	relinkCache *link.ComponentCache
}

// cyclePricerEntry is a single-flight slot of the cycle-pricer pool.
type cyclePricerEntry struct {
	done   chan struct{}
	pricer *compile.CyclePricer
	err    error
}

type endpointCounters struct {
	count    atomic.Int64
	errors   atomic.Int64
	busy     atomic.Int64
	timeouts atomic.Int64
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.normalized()
	s := &Server{
		cfg:     cfg,
		fncache: cfg.FnCache,
		queue:   newJobQueue(cfg.Jobs, cfg.MaxQueue),
		mux:     http.NewServeMux(),
		started: time.Now(),
		pool:    make(map[string]*compilerEntry),
		eps:     make(map[string]*endpointCounters),

		cyclePricers: make(map[string]*cyclePricerEntry),
	}
	if !cfg.Check {
		s.ipcache = interproc.NewCache()
	}
	s.linkReg.sessions = make(map[string]*linkSession)
	s.relinkCache = link.NewComponentCache()
	s.mux.HandleFunc("POST /analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /compile", s.handleCompile)
	s.mux.HandleFunc("POST /search", s.handleSearch)
	s.mux.HandleFunc("POST /tune", s.handleTune)
	s.mux.HandleFunc("POST /link", s.handleLinkCreate)
	s.mux.HandleFunc("POST /link/{id}/patch", s.handleLinkPatch)
	s.mux.HandleFunc("POST /link/{id}/search", s.handleLinkSearch)
	s.mux.HandleFunc("POST /link/{id}/tune", s.handleLinkTune)
	s.mux.HandleFunc("DELETE /link/{id}", s.handleLinkDelete)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// compileOptions configures every compiler the server builds, pooled or
// per link-session query.
func (s *Server) compileOptions() compile.Options {
	return compile.Options{Check: s.cfg.Check, FnCache: s.fncache}
}

// FnCache returns the process-wide content cache (for Save/Close at exit).
func (s *Server) FnCache() *compile.FnCache { return s.fncache }

// Drain stops admitting work — new work requests and /healthz answer 503
// — and blocks until every in-flight request has finished or ctx expires.
// /stats and /healthz keep answering throughout, which is how a load
// balancer notices the instance is going away while requests complete.
func (s *Server) Drain(ctx context.Context) error {
	idle := s.gate.beginDrain()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.gate.Draining() }

func (s *Server) ep(name string) *endpointCounters {
	s.epMu.Lock()
	defer s.epMu.Unlock()
	c, ok := s.eps[name]
	if !ok {
		c = &endpointCounters{}
		s.eps[name] = c
	}
	return c
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.gate.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// workRequest is the common prologue of the three work endpoints.
type workRequest struct {
	ep      *endpointCounters
	jobs    int
	release func()
}

// admit runs the shared request prologue after decode: drain gate, queue
// admission under the request context, optional injected delay. When the
// second return is false the response has been written and the caller must
// return; when true, the caller must defer wr.release().
func (s *Server) admit(w http.ResponseWriter, r *http.Request, ep *endpointCounters, jobs, delayMs int) (*workRequest, bool) {
	if !s.gate.Enter() {
		ep.busy.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "draining"})
		return nil, false
	}
	wr := &workRequest{ep: ep}
	exitGate := true
	defer func() {
		if exitGate {
			s.gate.Exit()
		}
	}()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	wr.jobs = s.queue.Clamp(jobs)
	if err := s.queue.Acquire(ctx, wr.jobs); err != nil {
		cancel()
		if errors.Is(err, ErrQueueFull) {
			ep.busy.Add(1)
			writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "job queue full"})
		} else {
			ep.timeouts.Add(1)
			writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{Error: "timed out waiting for job tokens"})
		}
		return nil, false
	}
	if s.cfg.AllowDelay && delayMs > 0 {
		select {
		case <-time.After(time.Duration(delayMs) * time.Millisecond):
		case <-ctx.Done():
			cancel()
			s.queue.Release(wr.jobs)
			ep.timeouts.Add(1)
			writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{Error: "timed out during injected delay"})
			return nil, false
		}
	}
	gate := &s.gate
	queue := s.queue
	jobsN := wr.jobs
	wr.release = func() {
		cancel()
		queue.Release(jobsN)
		gate.Exit()
	}
	exitGate = false // ownership moved to wr.release
	return wr, true
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, ep *endpointCounters, into any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		ep.errors.Add(1)
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

// unitFields are what every single-unit request (/analyze, /compile,
// /search, /tune) carries for its prologue.
type unitFields struct {
	name, source, target string
	jobs, delayMs        int
}

func (r *AnalyzeRequest) unit() unitFields {
	return unitFields{r.Name, r.Source, r.Target, r.Jobs, r.DelayMs}
}
func (r *CompileRequest) unit() unitFields {
	return unitFields{r.Name, r.Source, r.Target, r.Jobs, r.DelayMs}
}
func (r *SearchRequest) unit() unitFields {
	return unitFields{r.Name, r.Source, r.Target, r.Jobs, r.DelayMs}
}
func (r *TuneRequest) unit() unitFields {
	return unitFields{r.Name, r.Source, r.Target, r.Jobs, r.DelayMs}
}

// openUnit runs the prologue the single-unit endpoints share: count the
// request, decode its body into req, admit it, parse its target, require
// a name and source, and fetch the pooled compiler. When ok is false the
// response has been written and the caller must return; when true, the
// caller must defer wr.release().
func (s *Server) openUnit(w http.ResponseWriter, r *http.Request, endpoint string, req interface{ unit() unitFields }) (wr *workRequest, target codegen.Target, comp *compile.Compiler, ok bool) {
	ep := s.ep(endpoint)
	ep.count.Add(1)
	if !s.decode(w, r, ep, req) {
		return nil, 0, nil, false
	}
	u := req.unit()
	if wr, ok = s.admit(w, r, ep, u.jobs, u.delayMs); !ok {
		return nil, 0, nil, false
	}
	target, err := codegen.ParseTarget(u.target)
	if err != nil {
		s.fail(w, ep, http.StatusBadRequest, "%v", err)
	} else if u.name == "" || u.source == "" {
		s.fail(w, ep, http.StatusBadRequest, "name and source are required")
	} else if comp, err = s.compiler(u.name, u.source, target); err != nil {
		s.fail(w, ep, http.StatusUnprocessableEntity, "%v", err)
	} else {
		return wr, target, comp, true
	}
	wr.release()
	return nil, 0, nil, false
}

func (s *Server) fail(w http.ResponseWriter, ep *endpointCounters, code int, format string, args ...any) {
	ep.errors.Add(1)
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// compilerKey identifies a compiler by the exact source text, the source
// language (the name's extension picks the frontend), and the target. The
// exact bytes — not a structural fingerprint — so two modules that swap
// name→body bindings can never share a compiler.
func compilerKey(name, src string, target codegen.Target) string {
	h := sha256.Sum256([]byte(src))
	return fmt.Sprintf("%x/%s/%d", h, filepath.Ext(name), target)
}

// compiler returns the pooled compiler for (name, src, target), building
// and caching it on first use. Single-flight: concurrent first requests
// for one module share a single parse+build.
func (s *Server) compiler(name, src string, target codegen.Target) (*compile.Compiler, error) {
	key := compilerKey(name, src, target)
	s.poolMu.Lock()
	if e, ok := s.pool[key]; ok {
		if e.elem != nil {
			s.lruTouch(e.elem)
		}
		s.poolMu.Unlock()
		<-e.done
		if e.err == nil {
			s.poolMu.Lock()
			s.poolHits++
			s.poolMu.Unlock()
		}
		return e.comp, e.err
	}
	e := &compilerEntry{done: make(chan struct{})}
	s.pool[key] = e
	s.poolMu.Unlock()

	mod, err := source.FromBytes(name, []byte(src))
	if err == nil {
		e.comp = compile.NewWithOptions(mod, target, s.compileOptions())
	} else {
		e.err = fmt.Errorf("parse %s: %w", name, err)
	}

	s.poolMu.Lock()
	if e.err != nil {
		delete(s.pool, key) // failed builds are not cached; next try re-parses
	} else {
		e.elem = s.lruPush(key)
		s.poolLive++
		s.poolBuilt++
		s.evictCompilersLocked()
	}
	s.poolMu.Unlock()
	close(e.done)
	return e.comp, e.err
}

func (s *Server) lruPush(key string) *poolElem {
	el := &poolElem{key: key}
	if s.lruTail == nil {
		s.lruHead, s.lruTail = el, el
	} else {
		el.prev = s.lruTail
		s.lruTail.next = el
		s.lruTail = el
	}
	return el
}

func (s *Server) lruRemove(el *poolElem) {
	if el.prev != nil {
		el.prev.next = el.next
	} else {
		s.lruHead = el.next
	}
	if el.next != nil {
		el.next.prev = el.prev
	} else {
		s.lruTail = el.prev
	}
	el.prev, el.next = nil, nil
}

func (s *Server) lruTouch(el *poolElem) {
	if s.lruTail == el {
		return
	}
	s.lruRemove(el)
	if s.lruTail == nil {
		s.lruHead, s.lruTail = el, el
		return
	}
	el.prev = s.lruTail
	s.lruTail.next = el
	s.lruTail = el
}

// evictCompilersLocked retires least-recently-used compilers beyond the
// pool bound, folding their counters into the retired aggregates first so
// /stats totals are monotone.
func (s *Server) evictCompilersLocked() {
	for s.poolLive > s.cfg.MaxCompilers && s.lruHead != nil {
		el := s.lruHead
		e := s.pool[el.key]
		s.lruRemove(el)
		delete(s.pool, el.key)
		s.poolLive--
		s.poolEvict++
		if e != nil && e.comp != nil {
			s.retiredConfig = s.retiredConfig.Add(e.comp.ConfigCacheStats())
			s.retiredFunc = s.retiredFunc.Add(e.comp.FuncCacheStats())
			s.retiredDelta = s.retiredDelta.Add(e.comp.DeltaStats())
			s.retiredEvals += e.comp.Evaluations()
		}
	}
}

// cycleProfile describes the profiling run behind a cycle-aware /tune
// objective. Defaults are filled before keying so equivalent requests share
// one baseline interpretation and pricer.
type cycleProfile struct {
	entry      string
	args       []int64
	fuel       int64
	cacheBytes int
}

func (cp cycleProfile) key(compKey string) string {
	return fmt.Sprintf("%s/%s/%v/%d/%d",
		compKey, cp.entry, cp.args, cp.fuel, cp.cacheBytes)
}

// cyclePricer returns the pooled pricer for (compiler, profile), building
// it on first use. Single-flight like the compiler pool: concurrent first
// requests share one baseline build + interpretation.
func (s *Server) cyclePricer(comp *compile.Compiler, compKey string, cp cycleProfile) (*compile.CyclePricer, error) {
	key := cp.key(compKey)
	s.cycleMu.Lock()
	if e, ok := s.cyclePricers[key]; ok {
		s.cycleMu.Unlock()
		<-e.done
		if e.err == nil {
			s.cycleMu.Lock()
			s.cycleHits++
			s.cycleMu.Unlock()
		}
		return e.pricer, e.err
	}
	e := &cyclePricerEntry{done: make(chan struct{})}
	s.cyclePricers[key] = e
	s.cycleMu.Unlock()

	e.pricer, _, e.err = comp.ProfileBaseline(cp.entry, cp.args, cp.fuel, compile.CycleOptions{CacheBytes: cp.cacheBytes})

	s.cycleMu.Lock()
	if e.err != nil {
		delete(s.cyclePricers, key) // failed profiles are not cached
	} else {
		s.cycleOrder = append(s.cycleOrder, key)
		s.cycleBuilt++
		s.evictPricersLocked()
	}
	s.cycleMu.Unlock()
	close(e.done)
	return e.pricer, e.err
}

// evictPricersLocked retires the oldest pricers beyond the pool bound
// (shared with the compiler pool's), folding their counters into the
// retired aggregate first so /stats totals are monotone.
func (s *Server) evictPricersLocked() {
	for len(s.cycleOrder) > s.cfg.MaxCompilers {
		key := s.cycleOrder[0]
		s.cycleOrder = s.cycleOrder[1:]
		if e, ok := s.cyclePricers[key]; ok {
			delete(s.cyclePricers, key)
			if e.pricer != nil {
				s.retiredCycle = s.retiredCycle.Add(e.pricer.Stats())
			}
			s.cycleEvict++
		}
	}
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req CompileRequest
	wr, target, comp, ok := s.openUnit(w, r, "compile", &req)
	if !ok {
		return
	}
	defer wr.release()
	g := comp.Graph()
	mode := req.Inline
	if mode == "" {
		mode = "os"
	}
	rounds := req.Rounds
	if rounds <= 0 {
		rounds = 4
	}
	var cfg *callgraph.Config
	switch mode {
	case "none":
		cfg = callgraph.NewConfig()
	case "os":
		cfg = heuristic.OsConfig(comp.Module(), g)
	case "tune":
		best, _, _ := autotune.Combined(comp, heuristic.OsConfig(comp.Module(), g),
			autotune.ExtOptions{Options: autotune.Options{Rounds: rounds, Workers: wr.jobs}})
		cfg = best.Config
	case "optimal":
		maxSpace := req.MaxSpace
		if maxSpace == 0 {
			maxSpace = s.cfg.DefaultMaxSpace
		}
		res, searched := search.Optimal(comp, search.Options{Workers: wr.jobs, MaxSpace: maxSpace})
		if !searched {
			s.fail(w, wr.ep, http.StatusUnprocessableEntity,
				"recursive space %d exceeds maxSpace %d; raise maxSpace or use inline=tune", res.SpaceSize, maxSpace)
			return
		}
		cfg = res.Config
	default:
		s.fail(w, wr.ep, http.StatusBadRequest, "unknown inline mode %q", mode)
		return
	}
	writeJSON(w, http.StatusOK, CompileResponse{
		Name:           req.Name,
		Target:         target.String(),
		Inline:         mode,
		Size:           comp.Size(cfg),
		InlinableSites: len(g.Edges),
		InlinedSites:   cfg.InlineCount(),
		InlineSites:    cfg.InlineSites(),
		ConfigKey:      cfg.Key(),
	})
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	wr, target, comp, ok := s.openUnit(w, r, "search", &req)
	if !ok {
		return
	}
	defer wr.release()
	g := comp.Graph()
	hc := heuristic.OsConfig(comp.Module(), g)
	maxSpace := req.MaxSpace
	if maxSpace == 0 {
		maxSpace = s.cfg.DefaultMaxSpace
	}
	resp := SearchResponse{
		Name:           req.Name,
		Target:         target.String(),
		NoInlineSize:   comp.Size(callgraph.NewConfig()),
		HeuristicSize:  comp.Size(hc),
		InlinableSites: len(g.Edges),
	}
	res, searched := search.Optimal(comp, search.Options{Workers: wr.jobs, MaxSpace: maxSpace})
	resp.Searched = searched
	resp.SpaceSize = res.SpaceSize
	if searched {
		resp.OptimalSize = res.Size
		resp.InlineSites = res.Config.InlineSites()
		resp.ConfigKey = res.Config.Key()
		resp.Agreement = callgraph.Agreement(g.Sites(), res.Config, hc)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	var req TuneRequest
	wr, target, comp, ok := s.openUnit(w, r, "tune", &req)
	if !ok {
		return
	}
	defer wr.release()
	mode, err := parseTuneMode(req.Init, req.Objective)
	if err != nil {
		s.fail(w, wr.ep, http.StatusBadRequest, "%v", err)
		return
	}
	var init *callgraph.Config
	if mode.init == link.InitOs {
		init = heuristic.OsConfig(comp.Module(), comp.Graph())
	}
	rounds := req.Rounds
	if rounds <= 0 {
		rounds = 4
	}
	opts := autotune.Options{Rounds: rounds, Workers: wr.jobs}
	var res autotune.Result
	if mode.objective == link.ObjectiveSize {
		res = autotune.Tune(comp, init, opts)
	} else {
		if req.Lambda < 0 {
			s.fail(w, wr.ep, http.StatusBadRequest, "lambda must be >= 0")
			return
		}
		cp := cycleProfile{
			entry:      req.Entry,
			args:       req.Args,
			fuel:       req.Fuel,
			cacheBytes: req.CacheBytes,
		}
		if cp.entry == "" {
			cp.entry = "entry"
		}
		if cp.args == nil {
			cp.args = []int64{7}
		}
		if cp.fuel <= 0 {
			cp.fuel = 20_000_000
		}
		pricer, err := s.cyclePricer(comp, compilerKey(req.Name, req.Source, target), cp)
		if err != nil {
			s.fail(w, wr.ep, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		if mode.objective == link.ObjectiveCycles {
			res = autotune.TuneCycles(comp, pricer, init, opts)
		} else {
			res = autotune.TuneWeighted(comp, pricer, req.Lambda, init, opts)
		}
	}
	out := TuneResponse{
		Name:        req.Name,
		Target:      target.String(),
		Init:        mode.initName,
		InitSize:    res.InitSize,
		BestSize:    res.Size,
		InlineSites: res.Config.InlineSites(),
		ConfigKey:   res.Config.Key(),
	}
	if mode.objective != link.ObjectiveSize {
		// Size sessions keep the pre-objective response shape byte-for-byte;
		// cycle-aware sessions add their fields. The values are worker- and
		// delta-independent, so the body stays a pure function of the request.
		out.Objective = mode.objName
		out.InitCycles = res.InitCycles
		out.BestCycles = res.Cycles
		if mode.objective == link.ObjectiveWeighted {
			out.Lambda = req.Lambda
		}
	}
	for _, rt := range res.Rounds {
		out.Rounds = append(out.Rounds, TuneRound{
			Round: rt.Round, Size: rt.Size, Cycles: rt.Cycles, Inlined: rt.Inlined,
			NotInlined: rt.NotInlined, Toggles: rt.Toggles,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// tuneMode is a tune request's starting point and objective, with the
// names responses echo back.
type tuneMode struct {
	init      link.TuneInit
	initName  string
	objective link.TuneObjective
	objName   string
}

// parseTuneMode parses the init and objective names of /tune and
// /link/{id}/tune requests; "" selects os and size. Its error is the
// request's 400 body.
func parseTuneMode(init, objective string) (tuneMode, error) {
	m := tuneMode{initName: init, objName: objective}
	switch init {
	case "", "os":
		m.init, m.initName = link.InitOs, "os"
	case "clean":
		m.init = link.InitClean
	default:
		return m, fmt.Errorf("unknown init mode %q (want clean|os)", init)
	}
	switch objective {
	case "", "size":
		m.objective, m.objName = link.ObjectiveSize, "size"
	case "weighted":
		m.objective = link.ObjectiveWeighted
	case "cycles":
		m.objective = link.ObjectiveCycles
	default:
		return m, fmt.Errorf("unknown objective %q (want size, weighted, or cycles)", objective)
	}
	return m, nil
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	wr, target, comp, ok := s.openUnit(w, r, "analyze", &req)
	if !ok {
		return
	}
	defer wr.release()
	mod, g := comp.Module(), comp.Graph()
	ms := interproc.Analyze(mod, g, s.ipcache)
	fnJSON, err := ms.JSON()
	if err != nil {
		s.fail(w, wr.ep, http.StatusInternalServerError, "marshal summaries: %v", err)
		return
	}
	findings := interproc.Lints(mod, g, ms)
	findings.Sort()
	if findings == nil {
		findings = diag.List{}
	}

	edges := append([]callgraph.Edge(nil), g.Edges...)
	sort.Slice(edges, func(i, j int) bool { return edges[i].Site < edges[j].Site })
	sites := []AnalyzeSite{}
	for _, e := range edges {
		fv := ms.SiteFeatures(e)
		sites = append(sites, AnalyzeSite{
			Site:     e.Site,
			Caller:   e.Caller,
			Callee:   e.Callee,
			Features: append([]float64(nil), fv[:]...),
		})
	}
	writeJSON(w, http.StatusOK, AnalyzeResponse{
		Name:          req.Name,
		Target:        target.String(),
		SchemaVersion: interproc.FeatureSchemaVersion,
		FeatureNames:  interproc.SiteFeatureNames[:],
		Functions:     fnJSON,
		Findings:      findings,
		Sites:         sites,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Draining:      s.gate.Draining(),
		Queue:         s.queue.Stats(),
		Requests:      make(map[string]EndpointStats),
	}
	s.epMu.Lock()
	for name, c := range s.eps {
		resp.Requests[name] = EndpointStats{
			Count:    c.count.Load(),
			Errors:   c.errors.Load(),
			Busy:     c.busy.Load(),
			Timeouts: c.timeouts.Load(),
		}
	}
	s.epMu.Unlock()

	if s.ipcache != nil {
		ist := s.ipcache.Stats()
		resp.SummaryCache = SummaryCacheCounters{
			Hits: ist.Hits, Misses: ist.Misses, Entries: ist.Entries,
		}
	}

	fst := s.fncache.Stats()
	resp.FnCache = FnCacheStatsJSON{
		Hits: fst.Hits, Misses: fst.Misses, DiskHits: fst.DiskHits,
		Loaded: fst.Loaded, Corrupt: fst.Corrupt, Dupes: fst.Dupes,
		Stored: fst.Stored, Evicted: fst.Evicted, Syncs: fst.Syncs,
		Entries: s.fncache.Len(),
	}

	s.poolMu.Lock()
	cfgStats, fnStats, deltaStats := s.retiredConfig, s.retiredFunc, s.retiredDelta
	evals := s.retiredEvals
	for _, e := range s.pool {
		select {
		case <-e.done:
		default:
			continue // still building; no counters yet
		}
		if e.comp == nil {
			continue
		}
		cfgStats = cfgStats.Add(e.comp.ConfigCacheStats())
		fnStats = fnStats.Add(e.comp.FuncCacheStats())
		deltaStats = deltaStats.Add(e.comp.DeltaStats())
		evals += e.comp.Evaluations()
	}
	resp.Compilers = CompilerPoolStats{
		Live: s.poolLive, Built: s.poolBuilt, Hits: s.poolHits, Evicted: s.poolEvict,
	}
	s.poolMu.Unlock()

	resp.ConfigCache = CacheCounters{Hits: cfgStats.Hits, Misses: cfgStats.Misses}
	resp.FuncCache = CacheCounters{Hits: fnStats.Hits, Misses: fnStats.Misses}
	resp.Delta = DeltaCounters{Evals: deltaStats.Evals, DirtyFuncs: deltaStats.DirtyFuncs}
	resp.Evaluations = evals

	s.cycleMu.Lock()
	cyc := s.retiredCycle
	for _, e := range s.cyclePricers {
		select {
		case <-e.done:
		default:
			continue // still profiling; no counters yet
		}
		if e.pricer == nil {
			continue
		}
		cyc = cyc.Add(e.pricer.Stats())
	}
	resp.CyclePricers = CyclePricerPoolStats{
		Live:            len(s.cycleOrder),
		Built:           s.cycleBuilt,
		Hits:            s.cycleHits,
		Evicted:         s.cycleEvict,
		Repricings:      cyc.Repricings,
		FullEvals:       cyc.FullEvals,
		ConfigCacheHits: cyc.CacheHits,
		ReplayEvents:    cyc.ReplayEvents,
		CostCacheHits:   cyc.CostHits,
		CostCacheMisses: cyc.CostMisses,
	}
	s.cycleMu.Unlock()

	resp.LinkSessions = s.linkReg.stats()
	cst := s.relinkCache.Stats()
	resp.RelinkCache = RelinkCacheCounters{
		Hits: cst.Hits, Misses: cst.Misses, Entries: cst.Entries,
	}

	writeJSON(w, http.StatusOK, resp)
}
