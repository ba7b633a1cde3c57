package compile

import (
	"runtime"
	"sync"
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/interp"
	"optinline/internal/ir"
)

const src = `
func @wrapper(%x) {
entry:
  %r = call @work(%x) !site 1
  ret %r
}

func @work(%x) {
entry:
  %two = const 2
  %a = mul %x, %two
  %b = add %a, %x
  ret %b
}

func @huge(%x) {
entry:
  %a1 = mul %x, %x
  %a2 = mul %a1, %x
  %a3 = mul %a2, %x
  %a4 = mul %a3, %x
  %a5 = add %a4, %a3
  %a6 = add %a5, %a2
  %a7 = add %a6, %a1
  %a8 = mul %a7, %x
  %a9 = add %a8, %a7
  %a10 = mul %a9, %a9
  ret %a10
}

export func @main(%n) {
entry:
  %a = call @wrapper(%n) !site 2
  %b = call @huge(%n) !site 3
  %c = call @huge(%a) !site 4
  %s = add %a, %b
  %t = add %s, %c
  output %t
  ret %t
}
`

func newCompiler(t *testing.T) *Compiler {
	t.Helper()
	m, err := ir.Parse("cmp", src)
	if err != nil {
		t.Fatal(err)
	}
	return New(m, codegen.TargetX86)
}

func TestSizeIsDeterministic(t *testing.T) {
	c1, c2 := newCompiler(t), newCompiler(t)
	cfg := callgraph.NewConfig().Set(1, true).Set(3, true)
	if c1.Size(cfg) != c2.Size(cfg) {
		t.Fatal("size not deterministic across compilers")
	}
	if c1.Size(cfg) != c1.Size(cfg.Clone()) {
		t.Fatal("size not deterministic across equivalent configs")
	}
}

func TestSizeCaching(t *testing.T) {
	c := newCompiler(t)
	cfg := callgraph.NewConfig().Set(1, true)
	s1 := c.Size(cfg)
	evals := c.Evaluations()
	s2 := c.Size(cfg.Clone())
	if s1 != s2 {
		t.Fatal("cached size differs")
	}
	if c.Evaluations() != evals {
		t.Fatal("cache miss on identical config")
	}
	if c.CacheHits() == 0 {
		t.Fatal("hit counter not incremented")
	}
}

func TestInliningWrapperShrinks(t *testing.T) {
	c := newCompiler(t)
	clean := c.Size(callgraph.NewConfig())
	inlined := c.Size(callgraph.NewConfig().Set(2, true).Set(1, true))
	if inlined >= clean {
		t.Fatalf("inlining trivial wrappers should shrink: %d -> %d", clean, inlined)
	}
}

func TestInliningHugeCalleeGrows(t *testing.T) {
	c := newCompiler(t)
	clean := c.Size(callgraph.NewConfig())
	// Inlining only one of huge's two call sites duplicates the body
	// without removing the function.
	one := c.Size(callgraph.NewConfig().Set(3, true))
	if one <= clean {
		t.Fatalf("duplicating a huge callee should grow: %d -> %d", clean, one)
	}
}

func TestLabelBasedDFE(t *testing.T) {
	c := newCompiler(t)
	// All call sites into huge inlined: huge (internal) must be removed.
	cfg := callgraph.NewConfig().Set(3, true).Set(4, true)
	m, err := c.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Func("huge") != nil {
		t.Fatal("fully inlined internal callee not removed")
	}
	// One remaining no-inline edge keeps it alive.
	m, err = c.Build(callgraph.NewConfig().Set(3, true))
	if err != nil {
		t.Fatal(err)
	}
	if m.Func("huge") == nil {
		t.Fatal("callee with a surviving call site was removed")
	}
	// Exported functions are never removed.
	if m.Func("main") == nil {
		t.Fatal("exported function removed")
	}
}

func TestBuildPreservesSemantics(t *testing.T) {
	c := newCompiler(t)
	base, err := interp.Run(c.Module(), "main", []int64{5}, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []*callgraph.Config{
		callgraph.NewConfig(),
		callgraph.NewConfig().Set(1, true).Set(2, true).Set(3, true).Set(4, true),
		callgraph.NewConfig().Set(2, true),
	} {
		m, err := c.Build(cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		got, err := interp.Run(m, "main", []int64{5}, interp.Options{})
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		if got.Observable() != base.Observable() {
			t.Fatalf("%v changed behaviour", cfg)
		}
	}
}

func TestSizeParallelMatchesSequential(t *testing.T) {
	c := newCompiler(t)
	sites := c.Graph().Sites()
	var cfgs []*callgraph.Config
	for mask := 0; mask < 16; mask++ {
		cfg := callgraph.NewConfig()
		for i, s := range sites {
			if mask&(1<<i) != 0 {
				cfg.Set(s, true)
			}
		}
		cfgs = append(cfgs, cfg)
	}
	seq := newCompiler(t)
	want := make([]int, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = seq.Size(cfg)
	}
	got := c.SizeParallel(cfgs, 8)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cfg %d: parallel %d != sequential %d", i, got[i], want[i])
		}
	}
}

// TestConcurrentSizeIsSafe: many goroutines pricing overlapping
// configurations stay race-free, and goroutines pricing one configuration
// through every entry point of the shared whole-configuration table — Size,
// SizeDelta, Rebase and Sized for sizes, Cycles and CyclesDelta for cycles —
// compute it exactly once per table: the first arrival computes, the rest
// wait for it or hit.
func TestConcurrentSizeIsSafe(t *testing.T) {
	c := newCompiler(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				cfg := callgraph.NewConfig()
				for s := 1; s <= 4; s++ {
					if (seed+i)&s != 0 {
						cfg.Set(s, true)
					}
				}
				c.Size(cfg)
			}
		}(w)
	}
	wg.Wait()

	c, p := newPricedCompiler(t)
	clean := callgraph.NewConfig()
	base := c.Derive(new(Sized), nil, clean, nil) // priced outside the counted table
	cbase := p.Priced(clean)                      // one cycle repricing, before the race
	toggles := []int{1, 3}
	cfg := callgraph.NewConfigOf(toggles)
	const n = 8
	sizes := make([]int, 4*n)
	cycles := make([]int64, 2*n)
	start := make(chan struct{})
	for g := 0; g < n; g++ {
		wg.Add(6)
		go func() { defer wg.Done(); <-start; sizes[g] = c.Size(cfg) }()
		go func() { defer wg.Done(); <-start; sizes[n+g] = c.SizeDelta(base, toggles) }()
		go func() { defer wg.Done(); <-start; sizes[2*n+g] = c.Rebase(base, toggles).Size() }()
		go func() { defer wg.Done(); <-start; sizes[3*n+g] = c.Sized(cfg).Size() }()
		go func() { defer wg.Done(); <-start; cycles[g] = p.Cycles(cfg) }()
		go func() { defer wg.Done(); <-start; cycles[n+g] = p.CyclesDelta(cbase, toggles) }()
	}
	close(start)
	wg.Wait()
	if got := c.Evaluations(); got != 1 {
		t.Errorf("%d size evaluations of one configuration, want 1", got)
	}
	if got := c.CacheHits(); got != 4*n-1 {
		t.Errorf("%d size cache hits, want %d", got, 4*n-1)
	}
	if st := p.Stats(); st.Repricings != 2 || st.CacheHits != 2*n-1 {
		t.Errorf("cycle pricer %+v: want 2 repricings (base and config) and %d hits", st, 2*n-1)
	}
	for _, s := range sizes {
		if s != sizes[0] {
			t.Fatalf("size entry points disagree: %v", sizes)
		}
	}
	for _, cy := range cycles {
		if cy != cycles[0] {
			t.Fatalf("cycle entry points disagree: %v", cycles)
		}
	}
}

// TestConfigTableHitDoesNotAllocate: a finished whole-configuration entry
// is served without allocating, for sizes and cycles alike.
func TestConfigTableHitDoesNotAllocate(t *testing.T) {
	c, p := newPricedCompiler(t)
	cfg := callgraph.NewConfig().Set(2, true).Set(4, true)
	c.Size(cfg)
	p.Cycles(cfg)
	if a := testing.AllocsPerRun(100, func() { c.Size(cfg) }); a != 0 {
		t.Errorf("Size hit allocates %.1f times", a)
	}
	if a := testing.AllocsPerRun(100, func() { p.Cycles(cfg) }); a != 0 {
		t.Errorf("Cycles hit allocates %.1f times", a)
	}
}

// TestConfigTableWaitersShareOneFlight: callers that arrive while one
// configuration is being computed wait on that one computation, which
// makes the slot's channel only when the first of them arrives; every
// caller gets its value, only the computing one reports a miss, and the
// finished entry keeps no flight. Run it under -race.
func TestConfigTableWaitersShareOneFlight(t *testing.T) {
	tab := newConfigTable[int]()
	cfg := callgraph.NewConfig().Set(3, true).Set(70, true)
	key := string(cfg.AppendCacheKey(nil))
	slot := func() *flight[int] {
		tab.mu.Lock()
		defer tab.mu.Unlock()
		return tab.inflight[key]
	}
	waiting := func() bool {
		tab.mu.Lock()
		defer tab.mu.Unlock()
		f := tab.inflight[key]
		return f != nil && f.ready != nil
	}
	const waiters = 8
	vals, hits := make([]int, waiters+1), make([]bool, waiters+1)
	computes := 0
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		vals[0], hits[0] = tab.get(cfg, func() int { computes++; <-release; return 42 })
	}()
	for slot() == nil {
		runtime.Gosched()
	}
	if slot().ready != nil {
		t.Fatal("a flight without waiters made its channel")
	}
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], hits[i] = tab.get(cfg, func() int { computes++; return -1 })
		}(i)
	}
	for !waiting() {
		runtime.Gosched()
	}
	close(release) // later waiters find the slot in flight or finished
	wg.Wait()
	if computes != 1 || hits[0] {
		t.Fatalf("%d computations, first caller hit %v", computes, hits[0])
	}
	for i := 1; i <= waiters; i++ {
		if vals[i] != 42 || !hits[i] {
			t.Fatalf("waiter %d got %d (hit %v), want 42 from the flight", i, vals[i], hits[i])
		}
	}
	if slot() != nil || tab.done[key] != 42 {
		t.Fatalf("finished entry: in flight %v, value %d", slot() != nil, tab.done[key])
	}
}

// newPricedCompiler returns newCompiler's compiler with a cycle pricer
// profiled on main(5).
func newPricedCompiler(t *testing.T) (*Compiler, *CyclePricer) {
	t.Helper()
	c := newCompiler(t)
	built, err := c.Build(callgraph.NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, prof, err := interp.Collect(built, "main", []int64{5}, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.NewCyclePricer(prof, CycleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return c, p
}

func TestNewAssignsSitesAndIsDefensive(t *testing.T) {
	m := ir.NewModule("fresh")
	b := ir.NewFunction("callee", 1, false)
	b.Ret(b.Param(0))
	m.AddFunc(b.Fn)
	mb := ir.NewFunction("main", 1, true)
	r := mb.Call("callee", mb.Param(0))
	mb.Ret(r)
	m.AddFunc(mb.Fn)
	// No sites assigned yet; New must handle it.
	c := New(m, codegen.TargetX86)
	if len(c.Graph().Edges) != 1 {
		t.Fatalf("edges=%d", len(c.Graph().Edges))
	}
	// The original module must be untouched (still unassigned).
	if m.MaxSite() != 0 {
		t.Fatal("New mutated the caller's module")
	}
}

func TestIndependenceOfComponents(t *testing.T) {
	// Two disjoint call chains in one module: the size delta of toggling
	// an edge in one chain must not depend on labels in the other. This is
	// the exactness property of the recursively partitioned search.
	twoComp := `
func @a1(%x) {
entry:
  %c = const 3
  %r = mul %x, %c
  ret %r
}
func @a0(%x) {
entry:
  %r = call @a1(%x) !site 1
  ret %r
}
func @b1(%x) {
entry:
  %c = const 9
  %r = add %x, %c
  ret %r
}
func @b0(%x) {
entry:
  %r = call @b1(%x) !site 2
  ret %r
}
export func @mainA(%x) {
entry:
  %r = call @a0(%x) !site 3
  ret %r
}
export func @mainB(%x) {
entry:
  %r = call @b0(%x) !site 4
  ret %r
}
`
	m, err := ir.Parse("ind", twoComp)
	if err != nil {
		t.Fatal(err)
	}
	c := New(m, codegen.TargetX86)
	// Delta of toggling site 3 must be identical across all labelings of
	// the B component.
	for _, s1 := range []bool{false, true} {
		var ref *int
		for maskB := 0; maskB < 4; maskB++ {
			base := callgraph.NewConfig()
			if maskB&1 != 0 {
				base.Set(2, true)
			}
			if maskB&2 != 0 {
				base.Set(4, true)
			}
			if s1 {
				base.Set(1, true)
			}
			d := c.Size(base.Clone().Set(3, true)) - c.Size(base)
			if ref == nil {
				ref = &d
			} else if *ref != d {
				t.Fatalf("component independence violated: delta %d vs %d", *ref, d)
			}
		}
	}
}
