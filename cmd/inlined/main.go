// Command inlined is the long-running inlining service: the batch CLIs'
// compile/search/tune core behind an HTTP daemon, sharing one
// content-addressed per-function cache across every request and — with
// -cache-dir — across restarts via the concurrent-safe incremental store.
//
// Usage:
//
//	inlined [flags]
//
//	-addr host:port       listen address (default 127.0.0.1:7433; use :0
//	                      for an ephemeral port, printed on stderr)
//	-jobs N               global worker-token pool shared by all requests
//	                      (default GOMAXPROCS)
//	-queue N              max requests waiting for tokens before 503
//	                      (default 64; negative = reject when busy)
//	-timeout d            per-request deadline for queueing (default 2m)
//	-max-compilers N      per-module compiler pool bound (default 128)
//	-max-space N          default /search space cap (default 65536)
//	-cache-dir d          persist the per-function cache in directory d
//	-cache-max-entries N  LRU bound on cached functions (0 = unbounded)
//	-fsync-every N        fsync the store every N appended records
//	-compact              compact the -cache-dir store offline and exit
//	-allow-delay          honor requests' delayMs field (testing only)
//	-max-link-sessions N  incremental re-link session registry bound
//	                      (default 32, FIFO eviction)
//	-check                serve from the reference evaluator (see README
//	                      "Checked mode is the reference"); response bodies
//	                      are byte-identical to a default daemon's
//	-drain-timeout d      how long SIGTERM waits for in-flight work (default 30s)
//
// Endpoints: POST /analyze, POST /compile, POST /search, POST /tune
// (JSON in/out),
// GET /stats, GET /healthz. On SIGTERM or SIGINT the daemon drains in two
// phases: /healthz and new work answer 503 while in-flight requests
// finish, then the listener shuts down and the cache store is synced.
//
// POST /link opens an incremental re-link session over named units (an id
// reused replaces the session); POST /link/{id}/patch swaps one unit's
// contents, recomputing symbol resolution only when the unit's link surface
// changed; POST /link/{id}/search and /link/{id}/tune answer the optimal
// search / lockstep autotune over the current units, re-solving only
// components whose 128-bit content key is new and replaying the rest from
// a result cache shared across all sessions; DELETE /link/{id} drops the
// session. Bodies are deterministic; replay and cache counters are on
// GET /stats under "linkSessions" and "relinkCache".
//
// /tune accepts an "objective" field (size, weighted, cycles): cycle-aware
// objectives profile entry(args...) on the no-inline baseline once — the
// profile and its incremental cycle pricer are pooled across requests —
// and report initCycles/bestCycles plus per-round cycles alongside the
// size trace. GET /stats exposes the pricer pool (profiles cached, repricings,
// a -check daemon's whole-module evaluations, replay events) under
// "cyclePricers".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"optinline/internal/cli"
	"optinline/internal/compile"
	"optinline/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "inlined:", err)
		os.Exit(1)
	}
}

func run() error {
	// The shared groups only register flags here: the store flags below
	// open the cache, and the server treats -jobs 0 as GOMAXPROCS.
	f := cli.New("inlined", flag.CommandLine)
	f.AddJobs(0, "global worker-token pool (0 = GOMAXPROCS)")
	f.AddMaxSpace(1<<16, "default search space cap")
	f.AddCacheDir()
	f.AddCheck("serve from the reference evaluator (checked compilers, no result caches)")
	var (
		addr         = flag.String("addr", "127.0.0.1:7433", "listen address (use :0 for an ephemeral port)")
		queueBound   = flag.Int("queue", 0, "max waiting requests before 503 (0 = 64, negative = none)")
		timeout      = flag.Duration("timeout", 2*time.Minute, "per-request queueing deadline")
		maxCompilers = flag.Int("max-compilers", 0, "per-module compiler pool bound (0 = 128)")
		cacheMax     = flag.Int("cache-max-entries", 0, "LRU bound on cached functions (0 = unbounded)")
		fsyncEvery   = flag.Int("fsync-every", 0, "fsync the store every N appended records (0 = default)")
		compact      = flag.Bool("compact", false, "compact the -cache-dir store offline and exit")
		allowDelay   = flag.Bool("allow-delay", false, "honor requests' delayMs field (testing only)")
		maxLinkSess  = flag.Int("max-link-sessions", 0, "incremental re-link session bound (0 = 32)")
		drainWait    = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight work")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		return fmt.Errorf("usage: inlined [flags] (no positional arguments)")
	}

	if *compact {
		if f.CacheDir == "" {
			return fmt.Errorf("-compact requires -cache-dir")
		}
		return compactStore(f.CacheDir, *cacheMax)
	}

	fncache, err := compile.OpenFnCacheWith(compile.FnCacheConfig{
		Dir: f.CacheDir, MaxEntries: *cacheMax, FsyncEvery: *fsyncEvery,
	})
	if err != nil {
		return err
	}
	srv := server.New(server.Config{
		Jobs:            f.Jobs,
		MaxQueue:        *queueBound,
		RequestTimeout:  *timeout,
		MaxCompilers:    *maxCompilers,
		DefaultMaxSpace: f.MaxSpace,
		FnCache:         fncache,
		AllowDelay:      *allowDelay,
		MaxLinkSessions: *maxLinkSess,
		Check:           f.Check,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The parseable stderr line is the contract with inlineload -addr auto,
	// the e2e tests, and the ci.sh smoke gate: with -addr :0 it is the only
	// way to learn the port.
	fmt.Fprintf(os.Stderr, "inlined: listening on http://%s\n", ln.Addr())
	if st := fncache.Stats(); f.CacheDir != "" {
		fmt.Fprintf(os.Stderr, "inlined: cache store %s: %d entries loaded (%d corrupt, %d duplicate)\n",
			f.CacheDir, st.Loaded, st.Corrupt, st.Dupes)
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "inlined: %v: draining (in-flight work finishes; fresh work gets 503)\n", s)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "inlined: drain incomplete:", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "inlined: shutdown:", err)
	}
	<-serveErr // Serve has returned http.ErrServerClosed
	if err := fncache.Close(); err != nil {
		return fmt.Errorf("closing cache store: %w", err)
	}
	fmt.Fprintf(os.Stderr, "inlined: drained; fn content cache: %v\n", fncache.Stats())
	return nil
}

// compactStore rewrites the append log canonically: duplicates from
// crash-reappends and stale records from evicted entries are dropped, and
// the result is byte-identical for identical cache contents.
func compactStore(dir string, maxEntries int) error {
	fncache, err := compile.OpenFnCacheWith(compile.FnCacheConfig{Dir: dir, MaxEntries: maxEntries})
	if err != nil {
		return err
	}
	before := fncache.Stats()
	if err := fncache.Compact(); err != nil {
		return fmt.Errorf("compact %s: %w", dir, err)
	}
	if err := fncache.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "inlined: compacted %s: %d entries kept (%d duplicate, %d corrupt records dropped)\n",
		dir, fncache.Len(), before.Dupes, before.Corrupt)
	return nil
}
