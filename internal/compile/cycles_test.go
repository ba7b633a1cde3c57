package compile

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/interp"
	"optinline/internal/ir"
	"optinline/internal/workload"
)

// profileFor builds the baseline (no-inline) module and interprets it once,
// returning nil for files whose dynamic call tree exceeds the fuel budget
// (they are skipped, like the Fig. 19 experiment skips them).
func profileFor(t testing.TB, c *Compiler) *interp.Profile {
	t.Helper()
	built, err := c.Build(callgraph.NewConfig())
	if err != nil {
		t.Fatalf("baseline build: %v", err)
	}
	_, p, err := interp.Collect(built, "entry", []int64{7}, interp.Options{Fuel: 5_000_000})
	if err != nil {
		return nil
	}
	return p
}

// cycleCorpus pairs generated files with baseline profiles.
func cycleCorpus(t testing.TB) []struct {
	file workload.File
	prof *interp.Profile
} {
	var out []struct {
		file workload.File
		prof *interp.Profile
	}
	for _, f := range memoCorpus(t) {
		c := New(f.Module, codegen.TargetX86)
		if p := profileFor(t, c); p != nil {
			out = append(out, struct {
				file workload.File
				prof *interp.Profile
			}{f, p})
		}
	}
	if len(out) < 3 {
		t.Fatalf("cycle corpus too trivial: %d interpretable files", len(out))
	}
	return out
}

// cyclesNear prices cfg, base's configuration with the toggled sites
// flipped, as the autotuner prices a probe: one CyclesVia request that
// derives cfg's handle from base on a miss.
func cyclesNear(p *CyclePricer, base *Cycled, cfg *callgraph.Config, toggles []int) int64 {
	return p.CyclesVia(cfg, func() *Cycled { return p.Derive(new(Cycled), base, cfg, toggles) })
}

// TestCyclesDeltaMatchesFull is the exactness theorem of the cycle engine:
// for arbitrary bases and toggle sets, the incremental price must equal the
// checked compiler's whole-module evaluation of the same configuration.
func TestCyclesDeltaMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, fc := range cycleCorpus(t) {
		dc := New(fc.file.Module, codegen.TargetX86)
		fcomp := NewWithOptions(fc.file.Module, codegen.TargetX86, Options{Check: true})
		delta, err := dc.NewCyclePricer(fc.prof, CycleOptions{CacheBytes: 512})
		if err != nil {
			t.Fatalf("%s: %v", fc.file.Name, err)
		}
		full, err := fcomp.NewCyclePricer(fc.prof, CycleOptions{CacheBytes: 512})
		if err != nil {
			t.Fatalf("%s: %v", fc.file.Name, err)
		}
		sites := dc.Graph().Sites()

		for trial := 0; trial < 3; trial++ {
			baseCfg := callgraph.NewConfig()
			if trial > 0 {
				for _, s := range sites {
					if rng.Intn(2) == 0 {
						baseCfg.Set(s, true)
					}
				}
			}
			base := delta.Priced(baseCfg)
			if got, want := base.Cycles(), full.Cycles(baseCfg); got != want {
				t.Fatalf("%s base %v: Priced %d != full %d", fc.file.Name, baseCfg, got, want)
			}
			for _, s := range sites {
				cfg := flipped(baseCfg, []int{s})
				if got, want := cyclesNear(delta, base, cfg, []int{s}), full.Cycles(cfg); got != want {
					t.Fatalf("%s base %v toggle %d: delta %d != full %d",
						fc.file.Name, baseCfg, s, got, want)
				}
			}
			var multi []int
			for _, s := range sites {
				if rng.Intn(3) == 0 {
					multi = append(multi, s)
				}
			}
			cfg := flipped(baseCfg, multi)
			if got, want := cyclesNear(delta, base, cfg, multi), full.Cycles(cfg); got != want {
				t.Fatalf("%s base %v toggles %v: delta %d != full %d",
					fc.file.Name, baseCfg, multi, got, want)
			}
		}
		if delta.Stats().Repricings == 0 {
			t.Fatalf("%s: incremental path never engaged", fc.file.Name)
		}
		if full.Stats().FullEvals == 0 || full.Stats().Repricings != 0 {
			t.Fatalf("%s: oracle stats %+v", fc.file.Name, full.Stats())
		}
	}
}

// TestCycleRebaseAdvancesHandle mirrors the size engine's rebase contract:
// the handle derived for a round's kept toggles, on a cached or a fresh
// configuration, prices them exactly and stays a correct base.
func TestCycleRebaseAdvancesHandle(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, fc := range cycleCorpus(t) {
		dc := New(fc.file.Module, codegen.TargetX86)
		fcomp := NewWithOptions(fc.file.Module, codegen.TargetX86, Options{Check: true})
		delta, _ := dc.NewCyclePricer(fc.prof, CycleOptions{})
		full, _ := fcomp.NewCyclePricer(fc.prof, CycleOptions{})
		sites := dc.Graph().Sites()

		handle := delta.Priced(callgraph.NewConfig())
		cfg := callgraph.NewConfig()
		for step := 0; step < 4; step++ {
			var toggles []int
			for _, s := range sites {
				if rng.Intn(3) == 0 {
					toggles = append(toggles, s)
				}
			}
			next := flipped(cfg, toggles)
			if step%2 == 1 {
				delta.Cycles(next) // cached before the rebase
			}
			var h *Cycled
			cycles := delta.CyclesVia(next, func() *Cycled { h = delta.Derive(new(Cycled), handle, next, toggles); return h })
			if h == nil {
				h = delta.Derive(new(Cycled), handle, next, toggles)
			}
			cfg, handle = next, h
			if want := full.Cycles(cfg); cycles != want || handle.Cycles() != want {
				t.Fatalf("%s step %d: rebased cycles %d, handle %d, full %d", fc.file.Name, step, cycles, handle.Cycles(), want)
			}
			s := sites[rng.Intn(len(sites))]
			probe := flipped(cfg, []int{s})
			if got, want := cyclesNear(delta, handle, probe, []int{s}), full.Cycles(probe); got != want {
				t.Fatalf("%s step %d probe %d: delta %d != full %d", fc.file.Name, step, s, got, want)
			}
		}
	}
}

// TestCyclesParallelDeterminism: probing from 1, 2 and 8 goroutines, each
// deriving into its own reused memory, must return identical prices and
// counters — the cycle analogue of the CLIs' bit-identical -jobs
// guarantee.
func TestCyclesParallelDeterminism(t *testing.T) {
	fc := cycleCorpus(t)[0]
	var want []int64
	var wantStats CyclePricerStats
	for _, workers := range []int{1, 2, 8} {
		c := New(fc.file.Module, codegen.TargetX86)
		p, err := c.NewCyclePricer(fc.prof, CycleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sites := c.Graph().Sites()
		toggles := make([][]int, len(sites))
		for i, s := range sites {
			toggles[i] = []int{s}
		}
		base := p.Priced(callgraph.NewConfig())
		got := make([]int64, len(toggles))
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var cfg callgraph.Config
				var h Cycled
				for i := int(next.Add(1)) - 1; i < len(toggles); i = int(next.Add(1)) - 1 {
					cfg.CopyFrom(callgraph.NewConfigOf(toggles[i]))
					got[i] = p.CyclesVia(&cfg, func() *Cycled { return p.Derive(&h, base, &cfg, toggles[i]) })
				}
			}()
		}
		wg.Wait()
		if want == nil {
			want, wantStats = got, p.Stats()
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d toggle %d: %d != %d", workers, i, got[i], want[i])
			}
		}
		if st := p.Stats(); st != wantStats {
			t.Fatalf("workers=%d: counters %+v, sequential %+v", workers, st, wantStats)
		}
	}
}

// TestCyclePricerDisabledPaths: a checked compiler's pricer must force the
// full Build path, transparently: Derive makes no handle and CyclesVia
// never pulls one.
func TestCyclePricerDisabledPaths(t *testing.T) {
	fc := cycleCorpus(t)[0]
	ref := New(fc.file.Module, codegen.TargetX86)
	fast, _ := ref.NewCyclePricer(fc.prof, CycleOptions{})
	s := ref.Graph().Sites()[0]
	probe := callgraph.NewConfig().Set(s, true)
	want := fast.Cycles(probe)

	checked := NewWithOptions(fc.file.Module, codegen.TargetX86, Options{Check: true})
	p, err := checked.NewCyclePricer(fc.prof, CycleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Priced(callgraph.NewConfig()).Cycles(), fast.Cycles(callgraph.NewConfig()); got != want {
		t.Fatalf("fallback Priced %d != incremental %d", got, want)
	}
	if p.Derive(new(Cycled), nil, probe, nil) != nil {
		t.Fatal("Derive returned a handle")
	}
	pull := func() *Cycled { t.Fatal("CyclesVia pulled a handle in checked mode"); return nil }
	if got := p.CyclesVia(probe, pull); got != want {
		t.Fatalf("fallback price %d != incremental %d", got, want)
	}
	if st := p.Stats(); st.Repricings != 0 || st.FullEvals == 0 {
		t.Fatalf("checked pricer took the incremental path: %+v", st)
	}
}

// TestCycleModelExactOnStraightLine: on branch-free programs the "static
// body cost × profiled entries" model is not an approximation — the pricer
// must reproduce the interpreter's cycle count exactly, for every
// configuration, including call/arg overheads, external calls, and the LRU
// i-cache penalty. This pins the whole bookkeeping chain end to end.
func TestCycleModelExactOnStraightLine(t *testing.T) {
	src := `
global @acc

func @leaf(%x) {
entry:
  %two = const 2
  %m = mul %x, %two
  %e = call @external_helper(%m)
  ret %e
}

func @mid(%a) {
entry:
  %l = call @leaf(%a)
  %one = const 1
  %s = add %l, %one
  storeg @acc, %s
  ret %s
}

func @side(%a) {
entry:
  %g = loadg @acc
  %v = add %g, %a
  output %v
  ret %v
}

export func @entry(%n) {
entry:
  %a = call @mid(%n)
  %b = call @leaf(%a)
  %c2 = call @side(%b)
  %r = add %a, %c2
  ret %r
}
`
	m := ir.MustParse("straight", src)
	c := New(m, codegen.TargetX86)
	const cacheBytes = 48 // small enough that inlining changes miss behaviour
	built, err := c.Build(callgraph.NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, prof, err := interp.Collect(built, "entry", []int64{7}, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pricer, err := c.NewCyclePricer(prof, CycleOptions{CacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	sites := c.Graph().Sites()
	if len(sites) < 3 {
		t.Fatalf("expected at least 3 candidate sites, got %v", sites)
	}
	// Exhaust every configuration over the candidate sites.
	for mask := 0; mask < 1<<len(sites); mask++ {
		cfg := callgraph.NewConfig()
		for i, s := range sites {
			if mask&(1<<i) != 0 {
				cfg.Set(s, true)
			}
		}
		bm, err := c.Build(cfg)
		if err != nil {
			t.Fatalf("mask %b: %v", mask, err)
		}
		res, err := interp.Run(bm, "entry", []int64{7}, interp.Options{
			SizeOf:     codegen.SizeOf(bm, codegen.TargetX86),
			CacheBytes: cacheBytes,
		})
		if err != nil {
			t.Fatalf("mask %b: %v", mask, err)
		}
		if got := pricer.Cycles(cfg); got != res.Cycles {
			t.Fatalf("mask %b: pricer %d != interpreter %d", mask, got, res.Cycles)
		}
	}
}

// TestCyclePricerRejectsForeignProfile: a profile from a different module
// must be refused, not silently mispriced.
func TestCyclePricerRejectsForeignProfile(t *testing.T) {
	corpus := cycleCorpus(t)
	a := New(corpus[0].file.Module, codegen.TargetX86)
	if _, err := a.NewCyclePricer(corpus[1].prof, CycleOptions{}); err == nil {
		// Different generated files can coincidentally share function names;
		// only fail the test when the profile names a missing function.
		names := map[string]bool{}
		for _, f := range a.Module().Funcs {
			names[f.Name] = true
		}
		for _, n := range corpus[1].prof.Funcs {
			if !names[n] {
				t.Fatalf("profile names %q, missing from module, but pricer accepted it", n)
			}
		}
	}
}
