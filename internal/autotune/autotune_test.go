package autotune

import (
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/heuristic"
	"optinline/internal/ir"
	"optinline/internal/search"
)

// The module exercises the autotuner's behaviours:
//   - @wrap: single beneficial toggle (clean slate finds it)
//   - @big:  inlining any one call site grows the program; inlining all of
//     them deletes the callee (only discoverable from an initialization
//     that already inlines them, the paper's Figure 14 situation).
const src = `
func @wrap(%x) {
entry:
  %one = const 1
  %r = add %x, %one
  ret %r
}

func @big(%x) {
entry:
  %a1 = mul %x, %x
  %a2 = mul %a1, %x
  %a3 = add %a2, %a1
  %a4 = mul %a3, %a2
  %a5 = add %a4, %a3
  %a6 = mul %a5, %a4
  ret %a6
}

export func @mainA(%x) {
entry:
  %a = call @wrap(%x) !site 1
  %b = call @big(%x) !site 2
  %s = add %a, %b
  ret %s
}

export func @mainB(%x) {
entry:
  %b = call @big(%x) !site 3
  ret %b
}
`

func newCompiler(t *testing.T) *compile.Compiler {
	t.Helper()
	m, err := ir.Parse("at", src)
	if err != nil {
		t.Fatal(err)
	}
	return compile.New(m, codegen.TargetX86)
}

func TestCleanSlateFindsSingleToggles(t *testing.T) {
	c := newCompiler(t)
	res := Tune(c, nil, Options{})
	if !res.Config.Inline(1) {
		t.Fatal("beneficial wrapper toggle not kept")
	}
	if res.Config.Inline(2) || res.Config.Inline(3) {
		t.Fatal("individually harmful toggles kept")
	}
	if res.Size > res.InitSize {
		t.Fatalf("tuning made things worse: %d -> %d", res.InitSize, res.Size)
	}
}

func TestResultSizesConsistent(t *testing.T) {
	c := newCompiler(t)
	res := Tune(c, nil, Options{Rounds: 2})
	if got := c.Size(res.Config); got != res.Size {
		t.Fatalf("reported size %d != recomputed %d", res.Size, got)
	}
	if got := c.Size(res.Final); got != res.FinalSize {
		t.Fatalf("final size mismatch")
	}
	if len(res.Rounds) == 0 || res.Rounds[0].Round != 1 {
		t.Fatalf("round trace broken: %+v", res.Rounds)
	}
	for _, r := range res.Rounds {
		if r.Inlined+r.NotInlined != len(c.Graph().Sites()) {
			t.Fatalf("round %d counts inconsistent: %+v", r.Round, r)
		}
	}
}

func TestInitializedTuningCanBeatCleanSlate(t *testing.T) {
	c := newCompiler(t)
	// Initialization that inlines both big call sites: the callee dies, and
	// no single outline-toggle improves, so tuning keeps the group win.
	init := callgraph.NewConfig().Set(2, true).Set(3, true)
	inited := Tune(c, init, Options{})
	clean := Tune(c, nil, Options{})
	if inited.Size >= clean.Size {
		// The group-DCE win must make the initialized result strictly
		// better in this constructed module.
		t.Fatalf("initialized %d should beat clean slate %d", inited.Size, clean.Size)
	}
}

func TestCombinedPicksBest(t *testing.T) {
	c := newCompiler(t)
	init := callgraph.NewConfig().Set(2, true).Set(3, true)
	best, clean, inited := Combined(c, init, ExtOptions{})
	if best.Size > clean.Size || best.Size > inited.Size {
		t.Fatalf("combined %d worse than a branch (%d, %d)", best.Size, clean.Size, inited.Size)
	}
}

func TestFixpointStopsEarly(t *testing.T) {
	c := newCompiler(t)
	res := Tune(c, nil, Options{Rounds: 10})
	if len(res.Rounds) == 10 {
		t.Fatal("expected early fixpoint")
	}
	last := res.Rounds[len(res.Rounds)-1]
	if last.Toggles != 0 {
		t.Fatalf("last round still toggled %d", last.Toggles)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	cs, cp := newCompiler(t), newCompiler(t)
	rs := Tune(cs, nil, Options{Rounds: 3, Workers: 1})
	rp := Tune(cp, nil, Options{Rounds: 3, Workers: 8})
	if rs.Size != rp.Size || !rs.Config.Equal(rp.Config) {
		t.Fatalf("parallel tuning diverged: %d vs %d", rs.Size, rp.Size)
	}
}

func TestTunerNeverWorseThanItsStart(t *testing.T) {
	c := newCompiler(t)
	g := c.Graph()
	h := heuristic.OsConfig(c.Module(), g)
	res := Tune(c, h, Options{Rounds: 4})
	if res.Size > res.InitSize {
		t.Fatalf("best-of-rounds worse than init: %d > %d", res.Size, res.InitSize)
	}
}

func TestTunerFindsOptimalOnLocalModule(t *testing.T) {
	// On this module, optimal configurations are discoverable: clean slate
	// finds the wrapper win, the big-group win needs the init. Best-of-two
	// must equal the exhaustive optimum (the paper's 81% story, here 100%).
	c := newCompiler(t)
	opt, ok := search.Optimal(c, search.Options{})
	if !ok {
		t.Fatal("search aborted")
	}
	init := callgraph.NewConfig().Set(2, true).Set(3, true).Set(1, true)
	best, _, _ := Combined(c, init, ExtOptions{Options: Options{Rounds: 4}})
	if best.Size != opt.Size {
		t.Fatalf("autotuner %d != optimal %d", best.Size, opt.Size)
	}
}

func TestEvaluationBudget(t *testing.T) {
	// One round costs at most n+2 real compilations (plus cache hits).
	c := newCompiler(t)
	n := len(c.Graph().Sites())
	Tune(c, nil, Options{})
	if got := c.Evaluations(); got > int64(n+2) {
		t.Fatalf("round used %d evaluations, budget %d", got, n+2)
	}
}
