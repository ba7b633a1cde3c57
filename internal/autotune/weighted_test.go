package autotune

import (
	"math"
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/interp"
	"optinline/internal/workload"
)

// weightedFixture generates one interpretable unit with a profile-backed
// cycle pricer.
func weightedFixture(t *testing.T) (*compile.Compiler, *compile.CyclePricer) {
	t.Helper()
	return weightedFixtureWith(t, compile.Options{})
}

// weightedFixtureWith is weightedFixture on a compiler built with opts.
func weightedFixtureWith(t *testing.T, opts compile.Options) (*compile.Compiler, *compile.CyclePricer) {
	t.Helper()
	p := workload.Profile{
		Name: "wt", Files: 10, TotalEdges: 70,
		ConstArgProb: 0.4, HubProb: 0.3, BigBodyProb: 0.25, LoopProb: 0.3,
		RecProb: 0.1, BranchProb: 0.5,
	}
	for _, f := range workload.Generate(p).Files {
		c := compile.NewWithOptions(f.Module, codegen.TargetX86, opts)
		if len(c.Graph().Edges) < 4 {
			continue
		}
		built, err := c.Build(callgraph.NewConfig())
		if err != nil {
			continue
		}
		_, prof, err := interp.Collect(built, "entry", []int64{7}, interp.Options{Fuel: 5_000_000})
		if err != nil {
			continue
		}
		pricer, err := c.NewCyclePricer(prof, compile.CycleOptions{CacheBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		return c, pricer
	}
	t.Fatal("no interpretable file with enough edges in generated corpus")
	return nil, nil
}

// TestTuneWeightedLambdaZeroMatchesSizeTuner: with lambda = 0 the weighted
// session minimizes bytes alone, so its best size can never be worse than
// the size tuner's from the same start (probe sets are identical; only the
// recorded Cycles field differs).
func TestTuneWeightedLambdaZeroMatchesSizeTuner(t *testing.T) {
	c, pricer := weightedFixture(t)
	opts := Options{Rounds: 3, Workers: 2}
	sizeRes := Tune(compile.New(c.Module(), codegen.TargetX86), nil, opts)
	wRes := TuneWeighted(c, pricer, 0, nil, opts)
	if wRes.Size != sizeRes.Size {
		t.Fatalf("lambda=0 best size %d != size tuner %d", wRes.Size, sizeRes.Size)
	}
	if wRes.Cycles <= 0 {
		t.Fatalf("weighted session did not record cycles: %+v", wRes)
	}
}

// TestTuneWeightedMonotoneTrade: the cycles-only endpoint must be at least
// as fast as the size-only endpoint, and the size-only endpoint at least as
// small — the defining property of the two frontier ends.
func TestTuneWeightedMonotoneTrade(t *testing.T) {
	c, pricer := weightedFixture(t)
	opts := Options{Rounds: 3, Workers: 2}
	sizeEnd := TuneWeighted(c, pricer, 0, nil, opts)
	speedEnd := TuneCycles(c, pricer, nil, opts)
	if speedEnd.Cycles > sizeEnd.Cycles {
		t.Fatalf("cycles-only endpoint slower than size-only: %d > %d", speedEnd.Cycles, sizeEnd.Cycles)
	}
	if sizeEnd.Size > speedEnd.Size {
		t.Fatalf("size-only endpoint bigger than cycles-only: %d > %d", sizeEnd.Size, speedEnd.Size)
	}
}

// TestTuneWeightedWorkerDeterminism: identical results for workers 1/2/8,
// the cycle-objective analogue of the CLIs' -jobs guarantee.
func TestTuneWeightedWorkerDeterminism(t *testing.T) {
	var ref Result
	for i, workers := range []int{1, 2, 8} {
		c, pricer := weightedFixture(t)
		got := TuneWeighted(c, pricer, 0.05, nil, Options{Rounds: 3, Workers: workers})
		if i == 0 {
			ref = got
			continue
		}
		if got.Size != ref.Size || got.Cycles != ref.Cycles || !got.Config.Equal(ref.Config) {
			t.Fatalf("workers=%d: (%d, %d) != (%d, %d)", workers, got.Size, got.Cycles, ref.Size, ref.Cycles)
		}
	}
}

// TestTuneWeightedDeltaOracle: the weighted session must produce identical
// results whether priced incrementally or by the reference evaluator (a
// checked compiler, whose pricer evaluates whole-module builds).
func TestTuneWeightedDeltaOracle(t *testing.T) {
	run := func(check bool) Result {
		c, pricer := weightedFixtureWith(t, compile.Options{Check: check})
		return TuneWeighted(c, pricer, 0.1, nil, Options{Rounds: 3, Workers: 2})
	}
	delta, full := run(false), run(true)
	if delta.Size != full.Size || delta.Cycles != full.Cycles || !delta.Config.Equal(full.Config) {
		t.Fatalf("delta (%d,%d) != oracle (%d,%d)", delta.Size, delta.Cycles, full.Size, full.Cycles)
	}
	if len(delta.Rounds) != len(full.Rounds) {
		t.Fatalf("round counts differ: %d vs %d", len(delta.Rounds), len(full.Rounds))
	}
	for i := range delta.Rounds {
		if delta.Rounds[i] != full.Rounds[i] {
			t.Fatalf("round %d differs: %+v vs %+v", i, delta.Rounds[i], full.Rounds[i])
		}
	}
}

// TestParetoFrontierShape: the frontier is non-empty, sorted by size with
// strictly decreasing cycles, bracketed by the endpoints.
func TestParetoFrontierShape(t *testing.T) {
	c, pricer := weightedFixture(t)
	pts := Pareto(c, pricer, nil, []float64{0.01, 0.1, 1}, Options{Rounds: 2, Workers: 2})
	if len(pts) == 0 {
		t.Fatal("empty frontier")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Size <= pts[i-1].Size {
			t.Fatalf("frontier not size-ascending: %+v", pts)
		}
		if pts[i].Cycles >= pts[i-1].Cycles {
			t.Fatalf("frontier not cycle-descending: %+v", pts)
		}
	}
	for _, p := range pts {
		if p.Config == nil {
			t.Fatal("frontier point without config")
		}
	}
}

// TestFrontierFilter: dominated and duplicate points are removed.
func TestFrontierFilter(t *testing.T) {
	cfg := callgraph.NewConfig()
	pts := []ParetoPoint{
		{Lambda: 0, Size: 100, Cycles: 900, Config: cfg},
		{Lambda: 0.1, Size: 110, Cycles: 800, Config: cfg},
		{Lambda: 0.2, Size: 120, Cycles: 850, Config: cfg}, // dominated by (110, 800)
		{Lambda: 0.3, Size: 110, Cycles: 800, Config: cfg}, // duplicate
		{Lambda: math.Inf(1), Size: 130, Cycles: 700, Config: cfg},
	}
	out := Frontier(pts)
	if len(out) != 3 {
		t.Fatalf("frontier %+v", out)
	}
	if out[0].Size != 100 || out[1].Size != 110 || out[2].Size != 130 {
		t.Fatalf("wrong points survived: %+v", out)
	}
	if out[1].Lambda != 0.1 {
		t.Fatalf("duplicate resolution should keep the smallest lambda: %+v", out[1])
	}
}
