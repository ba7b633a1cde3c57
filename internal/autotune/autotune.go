// Package autotune implements the paper's local inlining autotuner for size
// (Section 5, Algorithm 3) and its variants: clean-slate, heuristic-
// initialized, round-based, and best-of combination.
//
// One round evaluates, for every candidate edge independently and in
// parallel, the configuration that differs from the round's starting point
// only in that edge's label, and keeps the toggles that helped. The round
// costs n+2 compilations for n candidate edges. Rounds extend the scope:
// decisions that only pay off together (e.g. inlining every caller of a
// callee so the callee itself dies) can be discovered incrementally.
//
// Every tuner here is a run of one Session (session.go): the variants
// change only which probes a round prices — group toggles, the incremental
// active set — and how it prices them: by size deltas, by size and cycle
// deltas blended by a weight, or by a memoized objective.
package autotune

import (
	"optinline/internal/callgraph"
	"optinline/internal/compile"
)

// Options configures a tuning session.
type Options struct {
	// Rounds is the number of autotuning rounds; 0 means 1. The session
	// stops early at a fixpoint (a round that keeps no toggles).
	Rounds int
	// Workers bounds the concurrent per-edge evaluations; <= 0 uses
	// GOMAXPROCS.
	Workers int
}

// RoundTrace records one round's outcome (paper Table 4).
type RoundTrace struct {
	Round      int
	Size       int   // size of the configuration produced by this round
	Cycles     int64 // modelled cycles of that configuration; 0 for size-only sessions
	Inlined    int   // inline-labeled candidate edges after the round
	NotInlined int
	Toggles    int // edges whose label this round changed
}

// Result is the outcome of a tuning session.
type Result struct {
	// Config is the best configuration seen across all rounds (successive
	// rounds do not always improve; the paper recommends keeping the best).
	Config *callgraph.Config
	Size   int
	// Cycles is Config's modelled cycle count when the session tuned with a
	// cycle objective (weighted or cycles-only); 0 for size-only sessions.
	Cycles int64
	// InitSize is the size of the initial configuration (for objective
	// sessions: its cost); InitCycles its cycles, when priced.
	InitSize   int
	InitCycles int64
	// Final is the configuration produced by the last executed round; it
	// may be worse than Config.
	Final       *callgraph.Config
	FinalSize   int
	FinalCycles int64
	Rounds      []RoundTrace
	// Evaluations is the compiler's real-compilation counter at the end.
	Evaluations int64
}

// Tune runs a tuning session starting from init (nil means clean slate).
//
// Rounds run on the compiler's delta-evaluation engine: the starting point
// is priced once into a Sized handle, each per-edge probe is a SizeDelta
// against it (recompiling only the toggled edge's dirty closure), and the
// kept toggles Rebase the handle for the next round. On a checked compiler
// (the reference evaluator) every call transparently falls back to
// whole-configuration Size — results and evaluation counters are
// byte-identical either way.
func Tune(c *compile.Compiler, init *callgraph.Config, opts Options) Result {
	return TuneExtended(c, init, ExtOptions{Options: opts})
}

// Combined runs both a clean-slate and an init-initialized session and
// returns the better result, the clean slate on a tie (paper Figure 15);
// the second return values expose the two sessions for analysis.
func Combined(c *compile.Compiler, init *callgraph.Config, opts ExtOptions) (best, clean, inited Result) {
	clean = TuneExtended(c, nil, opts)
	inited = TuneExtended(c, init, opts)
	if clean.Size <= inited.Size {
		best = clean
	} else {
		best = inited
	}
	return best, clean, inited
}
