package autotune

import (
	"testing"

	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/heuristic"
	"optinline/internal/workload"
)

// TestTuneDeltaMatchesNoDelta: the autotuner on the delta engine must match
// the reference evaluator — a checked compiler, which has no delta engine —
// in every observable: configurations, sizes, round traces, and the
// evaluation counter the CLIs print on stdout.
func TestTuneDeltaMatchesNoDelta(t *testing.T) {
	p := workload.Profile{
		Name: "dpar", Files: 4, TotalEdges: 60,
		ConstArgProb: 0.35, HubProb: 0.3, BigBodyProb: 0.25, LoopProb: 0.35,
		RecProb: 0.1, BranchProb: 0.45, MultiRootPct: 0.15,
	}
	for _, f := range workload.Generate(p).Files {
		delta := compile.New(f.Module, codegen.TargetX86)
		if len(delta.Graph().Edges) == 0 {
			continue
		}
		full := compile.NewWithOptions(f.Module, codegen.TargetX86, compile.Options{Check: true})
		init := heuristic.OsConfig(delta.Module(), delta.Graph())

		opts := Options{Rounds: 3}
		for name, pair := range map[string][2]Result{
			"clean": {Tune(delta, nil, opts), Tune(full, nil, opts)},
			"os":    {Tune(delta, init, opts), Tune(full, init, opts)},
		} {
			d, w := pair[0], pair[1]
			if d.Size != w.Size || d.InitSize != w.InitSize || d.FinalSize != w.FinalSize {
				t.Fatalf("%s %s: sizes diverge: delta (%d,%d,%d) vs full (%d,%d,%d)",
					f.Name, name, d.InitSize, d.Size, d.FinalSize, w.InitSize, w.Size, w.FinalSize)
			}
			if !d.Config.Equal(w.Config) || !d.Final.Equal(w.Final) {
				t.Fatalf("%s %s: configurations diverge: %v vs %v", f.Name, name, d.Config, w.Config)
			}
			if len(d.Rounds) != len(w.Rounds) {
				t.Fatalf("%s %s: round counts diverge: %d vs %d", f.Name, name, len(d.Rounds), len(w.Rounds))
			}
			for i := range d.Rounds {
				if d.Rounds[i] != w.Rounds[i] {
					t.Fatalf("%s %s round %d: %+v vs %+v", f.Name, name, i+1, d.Rounds[i], w.Rounds[i])
				}
			}
		}
		if d, w := delta.Evaluations(), full.Evaluations(); d != w {
			t.Fatalf("%s: evaluation counters diverge: delta %d vs full %d", f.Name, d, w)
		}
		if delta.DeltaStats().Evals == 0 {
			t.Fatalf("%s: delta engine never engaged", f.Name)
		}
	}
}

// TestTuneExtendedDeltaMatchesNoDelta: same parity contract for the group-
// toggle and incremental extensions, whose rebase path (configuration-diff
// toggles) is easy to get subtly wrong.
func TestTuneExtendedDeltaMatchesNoDelta(t *testing.T) {
	p := workload.Profile{
		Name: "dparx", Files: 3, TotalEdges: 55,
		ConstArgProb: 0.3, HubProb: 0.45, BigBodyProb: 0.2, LoopProb: 0.3,
		RecProb: 0.05, BranchProb: 0.4, MultiRootPct: 0.1,
	}
	opts := ExtOptions{Options: Options{Rounds: 3}, GroupCallees: true, Incremental: true}
	for _, f := range workload.Generate(p).Files {
		delta := compile.New(f.Module, codegen.TargetX86)
		if len(delta.Graph().Edges) == 0 {
			continue
		}
		full := compile.NewWithOptions(f.Module, codegen.TargetX86, compile.Options{Check: true})
		d := TuneExtended(delta, nil, opts)
		w := TuneExtended(full, nil, opts)
		if d.Size != w.Size || d.FinalSize != w.FinalSize || !d.Config.Equal(w.Config) {
			t.Fatalf("%s: extended tuner diverges: delta %d %v vs full %d %v",
				f.Name, d.Size, d.Config, w.Size, w.Config)
		}
		for i := range d.Rounds {
			if d.Rounds[i] != w.Rounds[i] {
				t.Fatalf("%s round %d: %+v vs %+v", f.Name, i+1, d.Rounds[i], w.Rounds[i])
			}
		}
		if dd, ww := delta.Evaluations(), full.Evaluations(); dd != ww {
			t.Fatalf("%s: evaluation counters diverge: delta %d vs full %d", f.Name, dd, ww)
		}
	}
}
