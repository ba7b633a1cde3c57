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
		kept := tuneRound(c, sized, baseSize, sites, opts.Workers)
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

// tuneRound is Algorithm 3 generalized to an arbitrary starting point:
// every edge is toggled against the same base; beneficial toggles are kept
// and returned. Matching Algorithm 3's tie handling, a toggle *to* inline
// is kept on ties, while a toggle away from inline must strictly shrink
// the program.
func tuneRound(c *compile.Compiler, base *compile.Sized, baseSize int, sites []int, workers int) []int {
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

// CleanSlate tunes from the all-no-inline configuration.
func CleanSlate(c *compile.Compiler, opts Options) Result {
	return Tune(c, nil, opts)
}

// Combined runs both a clean-slate and an init-initialized session and
// returns the better result (paper Figure 15); the second return values
// expose the two sessions for analysis.
func Combined(c *compile.Compiler, init *callgraph.Config, opts Options) (best, clean, inited Result) {
	clean = Tune(c, nil, opts)
	inited = Tune(c, init, opts)
	if clean.Size <= inited.Size {
		best = clean
	} else {
		best = inited
	}
	return best, clean, inited
}
