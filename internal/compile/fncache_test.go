package compile

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/ir"
	"optinline/internal/lang"
)

// fuzzConfigs samples the configuration space of g the way the other
// differential fronts do: empty, all-inline (maximum DFE pressure), one
// targeted internal-callee kill set, and random samples.
func fuzzConfigs(c *Compiler, rng *rand.Rand, trials int) []*callgraph.Config {
	g := c.Graph()
	cfgs := []*callgraph.Config{callgraph.NewConfig()}
	all := callgraph.NewConfig()
	for _, e := range g.Edges {
		all.Set(e.Site, true)
	}
	cfgs = append(cfgs, all)
	for _, e := range g.Edges {
		if callee := c.Module().Func(e.Callee); callee != nil && !callee.Exported {
			kill := callgraph.NewConfig()
			for _, e2 := range g.Edges {
				if e2.Callee == e.Callee {
					kill.Set(e2.Site, true)
				}
			}
			cfgs = append(cfgs, kill)
			break
		}
	}
	for trial := 0; trial < trials; trial++ {
		cfg := callgraph.NewConfig()
		for _, e := range g.Edges {
			if rng.Intn(2) == 0 {
				cfg.Set(e.Site, true)
			}
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// TestFnCacheDifferentialFuzz is the content cache's differential front:
// across 30 generated MinC programs and sampled configurations, sizes from
// the content-addressed path, a whole-module Build, and checked compilation
// mode must agree exactly. All 30 programs share ONE
// FnCache — the corpus-sharing mode inlinebench runs in — so cross-module
// key collisions would surface here as wrong sizes.
func TestFnCacheDifferentialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	shared := NewFnCache()
	compared := 0
	for seed := int64(1); seed <= 30; seed++ {
		name := fmt.Sprintf("fnc%03d", seed)
		src := lang.GenerateSource(seed, lang.GenOptions{})
		mod, err := lang.Compile(name, src)
		if err != nil {
			t.Fatalf("seed %d: generated source does not lower: %v\n%s", seed, err, src)
		}
		cached := NewWithOptions(mod, codegen.TargetX86, Options{FnCache: shared})
		chk := NewWithOptions(mod, codegen.TargetX86, Options{Check: true})
		g := cached.Graph()
		if len(g.Edges) == 0 {
			continue
		}
		for _, cfg := range fuzzConfigs(cached, rng, 5) {
			got := cached.Size(cfg)
			want := wholeModuleSize(cached, cfg)
			chkGot := chk.Size(cfg)
			if err := chk.CheckFailure(); err != nil {
				t.Fatalf("seed %d cfg %v: checked mode: %v\n%s", seed, cfg, err, src)
			}
			if got != want || got != chkGot {
				t.Fatalf("seed %d cfg %v: fncache %d / whole-module %d / checked %d disagree\n%s",
					seed, cfg, got, want, chkGot, src)
			}
			compared++
		}
	}
	if compared < 100 {
		t.Fatalf("only %d configurations compared; corpus too trivial", compared)
	}
	if st := shared.Stats(); st.Hits == 0 {
		t.Fatalf("shared corpus cache never hit: %v", st)
	}
}

const twinSrc = `
func @h1(%x) {
entry:
  %one = const 1
  %r = add %x, %one
  ret %r
}

func @h2(%x) {
entry:
  %one = const 1
  %r = add %x, %one
  ret %r
}

export func @main(%n) {
entry:
  %a = call @h1(%n) !site 1
  %b = call @h2(%n) !site 2
  %s = add %a, %b
  ret %s
}
`

// TestFnCacheSharesStructuralTwins: two structurally identical helpers
// (different names) must share one content entry — the cross-file sharing
// property, demonstrated within one module where it is easiest to observe.
func TestFnCacheSharesStructuralTwins(t *testing.T) {
	mod, err := ir.Parse("twin", twinSrc)
	if err != nil {
		t.Fatal(err)
	}
	c := New(mod, codegen.TargetX86)
	c.Size(callgraph.NewConfig())
	// Three alive functions, but h1 and h2 compile to the same content key:
	// two misses (main, one twin), one hit (the other twin).
	if got := c.funcMisses.Load(); got != 2 {
		t.Fatalf("funcMisses = %d, want 2 (structural twins must share)", got)
	}
	if got := c.funcHits.Load(); got != 1 {
		t.Fatalf("funcHits = %d, want 1", got)
	}

	// The same module behind a second compiler sharing the cache: every
	// closure is already cached, so the second compiler never compiles.
	c2 := NewWithOptions(mod, codegen.TargetX86, Options{FnCache: c.FnCache()})
	c2.Size(callgraph.NewConfig())
	if got := c2.funcMisses.Load(); got != 0 {
		t.Fatalf("second compiler funcMisses = %d, want 0 (cross-compiler sharing)", got)
	}
	if c2.funcHits.Load() == 0 {
		t.Fatal("second compiler saw no hits")
	}
}

// evalAll sizes a spread of configurations and returns them keyed by the
// canonical config string.
func evalAll(c *Compiler) map[string]int {
	g := c.Graph()
	out := make(map[string]int)
	cfgs := []*callgraph.Config{callgraph.NewConfig()}
	all := callgraph.NewConfig()
	for _, e := range g.Edges {
		all.Set(e.Site, true)
	}
	cfgs = append(cfgs, all)
	for _, e := range g.Edges {
		cfgs = append(cfgs, callgraph.NewConfig().Set(e.Site, true))
	}
	for _, cfg := range cfgs {
		out[cfg.Key()] = c.Size(cfg)
	}
	return out
}

func twinModule(t *testing.T) *ir.Module {
	t.Helper()
	mod, err := ir.Parse("twin", twinSrc)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// TestFnCachePersistence: a second run against the same cache directory
// must reuse every entry of the first (zero compilations), with identical
// sizes, and report the disk traffic in its stats.
func TestFnCachePersistence(t *testing.T) {
	dir := t.TempDir()
	mod := twinModule(t)

	cold, err := OpenFnCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewWithOptions(mod, codegen.TargetX86, Options{FnCache: cold})
	want := evalAll(c1)
	if err := cold.Save(); err != nil {
		t.Fatal(err)
	}
	st := cold.Stats()
	if st.Stored == 0 {
		t.Fatalf("cold run stored nothing: %v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, fnCacheFile)); err != nil {
		t.Fatalf("store file missing: %v", err)
	}

	warm, err := OpenFnCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	wst := warm.Stats()
	if wst.Loaded != st.Stored || wst.Corrupt != 0 {
		t.Fatalf("warm open loaded %d (want %d), corrupt %d", wst.Loaded, st.Stored, wst.Corrupt)
	}
	c2 := NewWithOptions(mod, codegen.TargetX86, Options{FnCache: warm})
	got := evalAll(c2)
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("cfg %s: warm size %d != cold size %d", k, got[k], w)
		}
	}
	if m := c2.funcMisses.Load(); m != 0 {
		t.Fatalf("warm run compiled %d closures, want 0", m)
	}
	if wst = warm.Stats(); wst.DiskHits == 0 {
		t.Fatalf("warm run reported no disk hits: %v", wst)
	}

	// Determinism of the store itself: re-saving the same contents writes
	// byte-identical files (sorted records), so warm reruns are stable.
	before, err := os.ReadFile(filepath.Join(dir, fnCacheFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Save(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(filepath.Join(dir, fnCacheFile))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("re-saving identical contents changed the store bytes")
	}
}

// TestFnCacheCorruptionDegradesToMiss: any damage to the store — garbage
// header, truncated tail, bit flips inside a record — must surface as
// misses (recompute, correct sizes), never as a wrong size or a panic.
func TestFnCacheCorruptionDegradesToMiss(t *testing.T) {
	mod := twinModule(t)
	pristine := evalAll(New(mod, codegen.TargetX86))

	seedDir := t.TempDir()
	seedCache, err := OpenFnCache(seedDir)
	if err != nil {
		t.Fatal(err)
	}
	evalAll(NewWithOptions(mod, codegen.TargetX86, Options{FnCache: seedCache}))
	if err := seedCache.Save(); err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(filepath.Join(seedDir, fnCacheFile))
	if err != nil {
		t.Fatal(err)
	}
	nrec := (len(intact) - len(fnCacheHeader)) / fnRecordSize
	if nrec < 2 {
		t.Fatalf("need at least 2 records to corrupt, have %d", nrec)
	}

	cases := []struct {
		name        string
		mutate      func([]byte) []byte
		wantLoaded  int64
		wantCorrupt int64
	}{
		{"garbage-header", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			copy(out, "NOTACACHEFILE")
			return out
		}, 0, 1},
		{"stale-schema", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[len(fnCacheMagic)] ^= 0x01 // first byte of the schema line
			return out
		}, 0, 1},
		{"truncated-mid-record", func(b []byte) []byte {
			return b[:len(fnCacheHeader)+fnRecordSize+fnRecordSize/2]
		}, 1, 1},
		{"bitflip-size-field", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[len(fnCacheHeader)+18] ^= 0x40 // size word of record 0
			return out
		}, int64(nrec) - 1, 1},
		{"bitflip-key-field", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[len(fnCacheHeader)+3] ^= 0x01 // key word of record 0
			return out
		}, int64(nrec) - 1, 1},
		// An empty store file is indistinguishable from a fresh one now that
		// open itself creates the log (O_CREATE): not corruption, just empty.
		{"empty-file", func([]byte) []byte { return nil }, 0, 0},
		// Append-mode artifacts: a torn *final* record is the crash-mid-append
		// signature — everything before it loads, the tail is truncated away.
		{"torn-final-record", func(b []byte) []byte {
			return b[:len(b)-fnRecordSize/4]
		}, int64(nrec) - 1, 1},
		// Duplicate keys are what a crash-and-reappend cycle (or recompute
		// after eviction) leaves behind: legitimate, first record wins, and
		// the dupe is counted rather than treated as corruption.
		{"duplicate-keys", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			return append(out, b[len(fnCacheHeader):len(fnCacheHeader)+2*fnRecordSize]...)
		}, int64(nrec), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, fnCacheFile), tc.mutate(intact), 0o644); err != nil {
				t.Fatal(err)
			}
			fc, err := OpenFnCache(dir)
			if err != nil {
				t.Fatalf("corrupt store must open as misses, got error: %v", err)
			}
			st := fc.Stats()
			if st.Loaded != tc.wantLoaded || st.Corrupt != tc.wantCorrupt {
				t.Fatalf("loaded %d corrupt %d, want %d / %d", st.Loaded, st.Corrupt, tc.wantLoaded, tc.wantCorrupt)
			}
			got := evalAll(NewWithOptions(mod, codegen.TargetX86, Options{FnCache: fc}))
			for k, want := range pristine {
				if got[k] != want {
					t.Fatalf("cfg %s: size %d != pristine %d after %s", k, got[k], want, tc.name)
				}
			}
			// Re-saving heals the store: a subsequent open is clean.
			if err := fc.Save(); err != nil {
				t.Fatal(err)
			}
			healed, err := OpenFnCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			if hst := healed.Stats(); hst.Corrupt != 0 || hst.Loaded == 0 {
				t.Fatalf("store not healed by Save: %v", hst)
			}
		})
	}
}

// swappedASrc and swappedBSrc contain the same three function bodies and a
// textually identical caller, but swap which name (@g or @h) binds to
// which helper body, with module order permuted to compensate: the inline
// closure of @f streams the same member-fingerprint sequence, the same
// canonical site indices, and the same labels in both modules. Only the
// name→body binding — which the cache key must therefore capture itself,
// since a function's own name is excluded from its fingerprint —
// distinguishes them, and @f's size differs because the constant argument
// at site 1 folds a different body away in each.
const swappedASrc = `
func @g(%x) {
entry:
  %r = add %x, %x
  ret %r
}

func @h(%x) {
entry:
  %t1 = add %x, %x
  %t2 = mul %t1, %x
  %t3 = add %t2, %t1
  ret %t3
}

export func @f(%n) {
entry:
  %z = const 2
  %a = call @g(%z) !site 1
  %b = call @h(%n) !site 2
  %s = add %a, %b
  ret %s
}
`

const swappedBSrc = `
func @h(%x) {
entry:
  %r = add %x, %x
  ret %r
}

func @g(%x) {
entry:
  %t1 = add %x, %x
  %t2 = mul %t1, %x
  %t3 = add %t2, %t1
  ret %t3
}

export func @f(%n) {
entry:
  %z = const 2
  %a = call @g(%z) !site 1
  %b = call @h(%n) !site 2
  %s = add %a, %b
  ret %s
}
`

// TestFnCacheKeyBindsNamesToBodies: two modules whose members swap names
// over the same multiset of bodies must not collide in a shared cache —
// the regression that motivated streaming canonical name indices into
// closureKey. Before that, module B silently reused module A's sizes.
func TestFnCacheKeyBindsNamesToBodies(t *testing.T) {
	parse := func(src string) *ir.Module {
		mod, err := ir.Parse("swapped", src)
		if err != nil {
			t.Fatal(err)
		}
		return mod
	}
	allInline := func(c *Compiler) *callgraph.Config {
		cfg := callgraph.NewConfig()
		for _, e := range c.Graph().Edges {
			cfg.Set(e.Site, true)
		}
		return cfg
	}
	// Ground truth from whole-module builds, no content sharing.
	pa := New(parse(swappedASrc), codegen.TargetX86)
	pb := New(parse(swappedBSrc), codegen.TargetX86)
	wantA := wholeModuleSize(pa, allInline(pa))
	wantB := wholeModuleSize(pb, allInline(pb))
	if wantA == wantB {
		t.Fatalf("counterexample degenerate: both modules size to %d", wantA)
	}
	// Shared content cache, A first: B must not reuse A's @f entry.
	shared := NewFnCache()
	ca := NewWithOptions(parse(swappedASrc), codegen.TargetX86, Options{FnCache: shared})
	cb := NewWithOptions(parse(swappedBSrc), codegen.TargetX86, Options{FnCache: shared})
	if got := ca.Size(allInline(ca)); got != wantA {
		t.Fatalf("module A with shared cache: %d, want %d", got, wantA)
	}
	if got := cb.Size(allInline(cb)); got != wantB {
		t.Fatalf("module B with shared cache: %d, want %d (key collision: name→body binding missing from the key)", got, wantB)
	}
}

// TestFnCachePanicDoesNotWedge: a compute that panics must withdraw its
// in-flight entry before the panic unwinds — later lookups of the same key
// recompute rather than blocking forever on the poisoned slot or reading a
// zero size, and a waiter blocked mid-flight is released to retry.
func TestFnCachePanicDoesNotWedge(t *testing.T) {
	fc := NewFnCache()
	var hits, misses atomic.Int64

	key := FnKey{Hi: 1, Lo: 2}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate out of sizeOf")
			}
		}()
		fc.sizeOf(key, &hits, &misses, func() int { panic("boom") })
	}()
	relookup := make(chan int, 1)
	go func() { relookup <- fc.sizeOf(key, &hits, &misses, func() int { return 7 }) }()
	select {
	case got := <-relookup:
		if got != 7 {
			t.Fatalf("recompute after panic = %d, want 7", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("lookup after panicked compute blocked (cache wedged)")
	}

	key2 := FnKey{Hi: 3, Lo: 4}
	inCompute := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() { recover() }()
		fc.sizeOf(key2, &hits, &misses, func() int {
			close(inCompute)
			<-release
			panic("boom")
		})
	}()
	<-inCompute
	waited := make(chan int, 1)
	go func() { waited <- fc.sizeOf(key2, &hits, &misses, func() int { return 9 }) }()
	close(release)
	select {
	case got := <-waited:
		if got != 9 {
			t.Fatalf("waiter after panicked compute = %d, want 9", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter never released after panicked compute")
	}

	// The recomputed entries finish like any other: ready, holding no
	// channel.
	fc.mu.Lock()
	defer fc.mu.Unlock()
	for _, k := range []FnKey{key, key2} {
		if e := fc.entries[k]; e == nil || e.done != nil {
			t.Errorf("entry %v after recompute: %+v, want finished without a channel", k, e)
		}
	}
}

// TestFnCacheKeyTargetSensitive: the same module measured for two targets
// must not share entries — the target byte is part of the key.
func TestFnCacheKeyTargetSensitive(t *testing.T) {
	mod := twinModule(t)
	shared := NewFnCache()
	x86 := NewWithOptions(mod, codegen.TargetX86, Options{FnCache: shared})
	wasm := NewWithOptions(mod, codegen.TargetWASM, Options{FnCache: shared})
	x86.Size(callgraph.NewConfig())
	if wasm.Size(callgraph.NewConfig()) == 0 {
		t.Fatal("degenerate wasm size")
	}
	if got := wasm.funcMisses.Load(); got == 0 {
		t.Fatal("wasm compiler reused x86 entries: target missing from the key")
	}
}
