package search

import (
	"math/rand"
	"testing"

	"optinline/internal/codegen"
	"optinline/internal/compile"
)

// TestOptimalDeltaMatchesNoDelta: the search on the delta engine must match
// the reference evaluator — a checked compiler, which has no delta engine —
// bit for bit in optimal size, configuration, space size, and evaluation
// count: both walk the same recursion over the same configurations.
func TestOptimalDeltaMatchesNoDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	trials := 0
	for trials < 15 {
		m := randomModule(rng)
		delta := compile.New(m, codegen.TargetX86)
		if len(delta.Graph().Edges) == 0 {
			continue
		}
		trials++
		full := compile.NewWithOptions(m, codegen.TargetX86, compile.Options{Check: true})
		rd, ok1 := Optimal(delta, Options{})
		rw, ok2 := Optimal(full, Options{})
		if ok1 != ok2 {
			t.Fatalf("trial %d: ok diverges: %v vs %v", trials, ok1, ok2)
		}
		if rd.Size != rw.Size || rd.SpaceSize != rw.SpaceSize {
			t.Fatalf("trial %d: delta (%d, space %d) vs full (%d, space %d)\nmodule:\n%s",
				trials, rd.Size, rd.SpaceSize, rw.Size, rw.SpaceSize, m.String())
		}
		if !rd.Config.Equal(rw.Config) {
			t.Fatalf("trial %d: optimal configs diverge: %v vs %v", trials, rd.Config, rw.Config)
		}
		if err := full.CheckFailure(); err != nil {
			t.Fatalf("trial %d: checked search: %v", trials, err)
		}
		if rd.Evaluations != rw.Evaluations {
			t.Fatalf("trial %d: delta search evaluated %d configurations, the reference %d",
				trials, rd.Evaluations, rw.Evaluations)
		}
		if delta.DeltaStats().Evals == 0 {
			t.Fatalf("trial %d: delta engine never engaged", trials)
		}
	}
}

// TestOptimalDeltaParallelDeterminism: the delta path must keep the search's
// bit-identical-across-workers guarantee.
func TestOptimalDeltaParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	trials := 0
	for trials < 8 {
		m := randomModule(rng)
		cs := compile.New(m, codegen.TargetX86)
		if len(cs.Graph().Edges) == 0 {
			continue
		}
		trials++
		cp := compile.New(m, codegen.TargetX86)
		rs, _ := Optimal(cs, Options{Workers: -1})
		rp, _ := Optimal(cp, Options{Workers: 8})
		if rs.Size != rp.Size || !rs.Config.Equal(rp.Config) || rs.Evaluations != rp.Evaluations {
			t.Fatalf("trial %d: sequential (%d, %d evals) vs parallel (%d, %d evals)",
				trials, rs.Size, rs.Evaluations, rp.Size, rp.Evaluations)
		}
	}
}
