package autotune

import (
	"math"
	"sort"

	"optinline/internal/callgraph"
	"optinline/internal/compile"
)

// This file makes runtime a first-class tuning objective. Where Tune prices
// every probe in bytes through the size delta engine, the sessions below
// price each probe twice — bytes through compile.SizeVia and Derive,
// cycles through the profile-driven compile.CyclePricer's CyclesVia and
// Derive — and minimize a blend. Both engines are incremental and share
// the inverse-reachability dirty set, so a weighted round costs the same
// shape of work as a size round: n dirty-closure recompiles plus n event
// replays, never a re-interpretation.

// TuneWeighted tunes the blended objective size + lambda·cycles from init
// (nil means clean slate). lambda = 0 degenerates to the size objective;
// growing lambda buys speed with bytes. Ties keep toggles to inline and
// reject toggles away, exactly like the size tuner.
func TuneWeighted(c *compile.Compiler, pricer *compile.CyclePricer, lambda float64, init *callgraph.Config, opts Options) Result {
	cost := func(p price) float64 { return float64(p.size) + lambda*float64(p.cycles) }
	return newCompilerSession(c, pricer, cost, init, ExtOptions{Options: opts}).run(opts.Rounds)
}

// TuneCycles tunes modelled cycles alone — the speed-optimal endpoint of
// the frontier.
func TuneCycles(c *compile.Compiler, pricer *compile.CyclePricer, init *callgraph.Config, opts Options) Result {
	cost := func(p price) float64 { return float64(p.cycles) }
	return newCompilerSession(c, pricer, cost, init, ExtOptions{Options: opts}).run(opts.Rounds)
}

// ParetoPoint is one point of a size/speed frontier.
type ParetoPoint struct {
	// Lambda is the weight whose session produced the point: 0 for the
	// size-only endpoint, math.Inf(1) for the cycles-only endpoint.
	Lambda float64
	Size   int
	Cycles int64
	Config *callgraph.Config
}

// Pareto sweeps the blended objective from the size-only endpoint through
// the given positive lambdas to the cycles-only endpoint, each a full
// tuning session from init, and returns the non-dominated frontier sorted
// by size. The same profile prices every session, so the whole sweep costs
// one interpretation plus incremental repricing.
func Pareto(c *compile.Compiler, pricer *compile.CyclePricer, init *callgraph.Config, lambdas []float64, opts Options) []ParetoPoint {
	var pts []ParetoPoint
	record := func(lambda float64, r Result) {
		pts = append(pts, ParetoPoint{Lambda: lambda, Size: r.Size, Cycles: r.Cycles, Config: r.Config})
	}
	record(0, TuneWeighted(c, pricer, 0, init, opts))
	for _, l := range lambdas {
		if l > 0 {
			record(l, TuneWeighted(c, pricer, l, init, opts))
		}
	}
	record(math.Inf(1), TuneCycles(c, pricer, init, opts))
	return Frontier(pts)
}

// Frontier filters points to the non-dominated set: sorted by size
// ascending, strictly decreasing in cycles. Of points with equal (size,
// cycles) the one produced by the smallest lambda is kept.
func Frontier(pts []ParetoPoint) []ParetoPoint {
	sorted := append([]ParetoPoint(nil), pts...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Size != sorted[j].Size {
			return sorted[i].Size < sorted[j].Size
		}
		return sorted[i].Cycles < sorted[j].Cycles
	})
	var out []ParetoPoint
	for _, p := range sorted {
		if len(out) > 0 && p.Cycles >= out[len(out)-1].Cycles {
			continue // dominated (or duplicate) — same or more cycles at same or more bytes
		}
		out = append(out, p)
	}
	return out
}
