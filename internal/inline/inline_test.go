package inline

import (
	"math/rand"
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/interp"
	"optinline/internal/ir"
	"optinline/internal/lang"
)

const src = `
global @g

func @double(%x) {
entry:
  %two = const 2
  %r = mul %x, %two
  ret %r
}

func @clamp(%x) {
entry:
  %zero = const 0
  %c = lt %x, %zero
  condbr %c, low, ok
low:
  ret %zero
ok:
  ret %x
}

func @combo(%a, %b) {
entry:
  %x = call @double(%a) !site 1
  %y = call @clamp(%b) !site 2
  %s = add %x, %y
  storeg @g, %s
  ret %s
}

func @rec(%n) {
entry:
  %zero = const 0
  %stop = le %n, %zero
  condbr %stop, base, more
base:
  ret %zero
more:
  %one = const 1
  %m = sub %n, %one
  %r = call @rec(%m) !site 3
  output %r
  %s = add %r, %n
  ret %s
}

export func @main(%n) {
entry:
  %a = call @combo(%n, %n) !site 4
  %b = call @rec(%n) !site 5
  %gv = loadg @g
  %s = add %a, %b
  %t = add %s, %gv
  output %t
  ret %t
}
`

func parse(t *testing.T) *ir.Module {
	t.Helper()
	m, err := ir.Parse("inl", src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func behaviour(t *testing.T, m *ir.Module, n int64) [3]uint64 {
	t.Helper()
	res, err := interp.Run(m, "main", []int64{n}, interp.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res.Observable()
}

func TestInlineSingleCallPreservesSemantics(t *testing.T) {
	for site := 1; site <= 5; site++ {
		m := parse(t)
		want := behaviour(t, m, 4)
		cfg := callgraph.NewConfig().Set(site, true)
		if err := Apply(m, cfg, Options{}); err != nil {
			t.Fatalf("site %d: %v", site, err)
		}
		if err := m.Verify(); err != nil {
			t.Fatalf("site %d: verify: %v\n%s", site, err, m.String())
		}
		if got := behaviour(t, m, 4); got != want {
			t.Fatalf("site %d changed behaviour: %v vs %v", site, got, want)
		}
	}
}

func TestInlineRemovesLabeledCalls(t *testing.T) {
	m := parse(t)
	cfg := callgraph.NewConfig().Set(1, true).Set(2, true).Set(4, true)
	if err := Apply(m, cfg, Options{}); err != nil {
		t.Fatal(err)
	}
	// No remaining call instruction may carry an inline-labeled site
	// (except calls blocked by the recursion bound, none here).
	for _, f := range m.Funcs {
		for _, in := range f.Calls() {
			if cfg.Inline(in.Site) {
				t.Fatalf("call site %d survived in %s", in.Site, f.Name)
			}
		}
	}
}

func TestCoupledClones(t *testing.T) {
	// Inlining site 4 clones combo's body into main; combo's inner calls
	// (sites 1, 2) appear both in combo and in the clone. Labeling site 1
	// inline must expand BOTH copies.
	m := parse(t)
	cfg := callgraph.NewConfig().Set(4, true).Set(1, true)
	if err := Apply(m, cfg, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, f := range m.Funcs {
		for _, in := range f.Calls() {
			if in.Site == 1 {
				t.Fatalf("coupled copy of site 1 survived in %s", f.Name)
			}
		}
	}
	if got, want := behaviour(t, m, 5), behaviour(t, parse(t), 5); got != want {
		t.Fatalf("behaviour changed: %v vs %v", got, want)
	}
}

func TestRecursiveInlineBounded(t *testing.T) {
	m := parse(t)
	cfg := callgraph.NewConfig().Set(3, true).Set(5, true)
	if err := Apply(m, cfg, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	// rec's recursive call must still exist (expanded exactly once per
	// expansion context), with the site on its trail.
	found := false
	for _, f := range m.Funcs {
		for _, in := range f.Calls() {
			if in.Site == 3 {
				found = true
				has := false
				for _, s := range in.Trail {
					if s == 3 {
						has = true
					}
				}
				if !has {
					t.Fatal("surviving recursive call lacks its own site on the trail")
				}
			}
		}
	}
	if !found {
		t.Fatal("recursive call disappeared entirely")
	}
	if got, want := behaviour(t, m, 6), behaviour(t, parse(t), 6); got != want {
		t.Fatalf("behaviour changed: %v vs %v", got, want)
	}
}

func TestApplyAllConfigsPreserveSemantics(t *testing.T) {
	// Exhaustive: all 32 configurations over the 5 sites.
	for mask := 0; mask < 32; mask++ {
		m := parse(t)
		want := behaviour(t, m, 3)
		cfg := callgraph.NewConfig()
		for s := 1; s <= 5; s++ {
			if mask&(1<<(s-1)) != 0 {
				cfg.Set(s, true)
			}
		}
		if err := Apply(m, cfg, Options{}); err != nil {
			t.Fatalf("mask %05b: %v", mask, err)
		}
		if err := m.Verify(); err != nil {
			t.Fatalf("mask %05b: verify: %v", mask, err)
		}
		if got := behaviour(t, m, 3); got != want {
			t.Fatalf("mask %05b changed behaviour: %v vs %v", mask, got, want)
		}
	}
}

func TestApplyIsDeterministic(t *testing.T) {
	cfg := callgraph.NewConfig().Set(1, true).Set(4, true).Set(5, true)
	m1, m2 := parse(t), parse(t)
	if err := Apply(m1, cfg, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := Apply(m2, cfg, Options{}); err != nil {
		t.Fatal(err)
	}
	if m1.String() != m2.String() {
		t.Fatal("Apply is not deterministic")
	}
}

func TestMaxInstrsGuard(t *testing.T) {
	m := parse(t)
	cfg := callgraph.NewConfig().Set(4, true).Set(1, true).Set(2, true)
	err := Apply(m, cfg, Options{MaxInstrs: 10})
	if err == nil {
		t.Fatal("expected growth-bound error")
	}
}

func TestCallErrors(t *testing.T) {
	m := parse(t)
	f := m.Func("main")
	other := m.Func("combo")
	// A call instruction that is not in f.
	foreign := other.Calls()[0]
	if _, err := Call(f, foreign, m.Func("double")); err == nil {
		t.Fatal("expected not-found error")
	}
	// Arity mismatch.
	own := f.Calls()[0] // call @combo(%n, %n)
	if _, err := Call(f, own, m.Func("double")); err == nil {
		t.Fatal("expected arity error")
	}
}

// Property test: on randomly generated modules, every random configuration
// preserves observable behaviour. This is the central correctness property
// of the substrate.
func TestRandomModulesRandomConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		m := randomModule(rng, trial)
		if err := m.Verify(); err != nil {
			t.Fatalf("trial %d: generated module invalid: %v", trial, err)
		}
		arg := int64(rng.Intn(10))
		base, err := interp.Run(m, "entry0", []int64{arg}, interp.Options{})
		if err != nil {
			t.Fatalf("trial %d: base run: %v", trial, err)
		}
		g := callgraph.Build(m)
		for c := 0; c < 8; c++ {
			cfg := callgraph.NewConfig()
			for _, e := range g.Edges {
				if rng.Intn(2) == 0 {
					cfg.Set(e.Site, true)
				}
			}
			mc := m.Clone()
			if err := Apply(mc, cfg, Options{}); err != nil {
				t.Fatalf("trial %d cfg %v: %v", trial, cfg, err)
			}
			if err := mc.Verify(); err != nil {
				t.Fatalf("trial %d cfg %v: verify: %v", trial, cfg, err)
			}
			res, err := interp.Run(mc, "entry0", []int64{arg}, interp.Options{})
			if err != nil {
				t.Fatalf("trial %d cfg %v: run: %v", trial, cfg, err)
			}
			if res.Observable() != base.Observable() {
				t.Fatalf("trial %d cfg %v: behaviour changed", trial, cfg)
			}
		}
	}
}

// randomModule builds a small random module with a call DAG plus an
// occasional self-recursive function. Kept local to avoid depending on the
// workload generator from a lower-level package's tests.
func randomModule(rng *rand.Rand, id int) *ir.Module {
	m := ir.NewModule("rand")
	m.AddGlobal("g")
	n := 3 + rng.Intn(5)
	names := make([]string, n)
	for i := range names {
		names[i] = "f" + string(rune('a'+i))
	}
	// Build from the leaves up so calls target already-known names.
	for i := n - 1; i >= 0; i-- {
		b := ir.NewFunction(names[i], 1, false)
		x := b.Param(0)
		v := x
		steps := 1 + rng.Intn(4)
		for s := 0; s < steps; s++ {
			switch rng.Intn(5) {
			case 0:
				c := b.Const(int64(rng.Intn(7)))
				v = b.Bin(ir.Add, v, c)
			case 1:
				c := b.Const(int64(1 + rng.Intn(3)))
				v = b.Bin(ir.Mul, v, c)
			case 2:
				if i < n-1 {
					callee := names[i+1+rng.Intn(n-i-1)]
					v = b.Call(callee, v)
				}
			case 3:
				b.Output(v)
			case 4:
				b.StoreG("g", v)
				v = b.LoadG("g")
			}
		}
		// Occasional bounded self-recursion, strictly decreasing on the
		// parameter so it terminates for any non-negative argument.
		if rng.Intn(4) == 0 {
			zero := b.Const(0)
			cnd := b.Bin(ir.Gt, x, zero)
			recB := b.Block("rec", 0)
			done := b.Block("done", 0)
			b.CondBr(cnd, recB, nil, done, nil)
			b.SetBlock(recB)
			one := b.Const(1)
			dec := b.Bin(ir.Sub, x, one)
			r := b.Call(names[i], dec)
			s := b.Bin(ir.Add, r, v)
			b.Ret(s)
			b.SetBlock(done)
			b.Ret(v)
		} else {
			b.Ret(v)
		}
		m.AddFunc(b.Fn)
	}
	eb := ir.NewFunction("entry0", 1, true)
	arg := eb.Param(0)
	sum := eb.Const(0)
	for i := 0; i < 2+rng.Intn(3); i++ {
		r := eb.Call(names[rng.Intn(n)], arg)
		sum = eb.Bin(ir.Add, sum, r)
	}
	eb.Output(sum)
	eb.Ret(sum)
	m.AddFunc(eb.Fn)
	m.AssignSites()
	return m
}

// refApply is Apply without its shortcuts: every expansion goes through
// Call, which builds a fresh name pool from the caller's blocks, and the
// new calls are found by diffing the caller's block set.
// TestApplyMatchesPerCallReference holds Apply to its output.
func refApply(m *ir.Module, cfg *callgraph.Config) error {
	type work struct {
		fn   *ir.Function
		call *ir.Instr
	}
	var queue []work
	seen := make(map[*ir.Instr]bool)
	push := func(fn *ir.Function, in *ir.Instr) {
		if in.Op != ir.OpCall || !cfg.Inline(in.Site) || seen[in] || m.Func(in.Callee) == nil {
			return
		}
		for _, s := range in.Trail {
			if s == in.Site {
				return
			}
		}
		seen[in] = true
		queue = append(queue, work{fn, in})
	}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				push(f, in)
			}
		}
	}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		before := make(map[*ir.Block]bool)
		for _, b := range w.fn.Blocks {
			before[b] = true
		}
		if _, err := Call(w.fn, w.call, m.Func(w.call.Callee)); err != nil {
			return err
		}
		for _, b := range w.fn.Blocks {
			if !before[b] {
				for _, in := range b.Instrs {
					push(w.fn, in)
				}
			}
		}
	}
	return nil
}

// TestApplyMatchesPerCallReference checks that Apply's persistent name
// pools and inserted-block scan produce the same module text, block names
// included, as fresh per-expansion pools and a block-set diff.
func TestApplyMatchesPerCallReference(t *testing.T) {
	var mods []*ir.Module
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		mods = append(mods, randomModule(rng, trial))
	}
	for seed := int64(1); seed <= 10; seed++ {
		m, err := lang.Compile("gen", lang.GenerateSource(seed, lang.GenOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		m.AssignSites()
		mods = append(mods, m)
	}
	for i, m := range mods {
		g := callgraph.Build(m)
		for c := 0; c < 4; c++ {
			cfg := callgraph.NewConfig()
			for _, e := range g.Edges {
				if c == 0 || rng.Intn(2) == 0 {
					cfg.Set(e.Site, true)
				}
			}
			got, want := m.Clone(), m.Clone()
			if err := Apply(got, cfg, Options{}); err != nil {
				t.Fatalf("module %d cfg %v: %v", i, cfg, err)
			}
			if err := refApply(want, cfg); err != nil {
				t.Fatalf("module %d cfg %v: reference: %v", i, cfg, err)
			}
			if got.String() != want.String() {
				t.Fatalf("module %d cfg %v: Apply differs from the per-call reference\ngot:\n%s\nwant:\n%s",
					i, cfg, got, want)
			}
		}
	}
}

func TestCallReportsInsertedBlocks(t *testing.T) {
	m := parse(t)
	f := m.Func("main")
	before := append([]*ir.Block(nil), f.Blocks...)
	call := f.Calls()[0]
	inserted, err := Call(f, call, m.Func(call.Callee))
	if err != nil {
		t.Fatal(err)
	}
	var fresh []*ir.Block
	for _, b := range f.Blocks {
		old := false
		for _, o := range before {
			old = old || o == b
		}
		if !old {
			fresh = append(fresh, b)
		}
	}
	if len(inserted) != len(fresh) {
		t.Fatalf("Call reported %d blocks, inserted %d", len(inserted), len(fresh))
	}
	for i := range fresh {
		if inserted[i] != fresh[i] {
			t.Fatalf("block %d: reported %s, inserted %s", i, inserted[i].Name, fresh[i].Name)
		}
	}
}
