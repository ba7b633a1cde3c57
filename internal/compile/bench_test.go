package compile

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/heuristic"
	"optinline/internal/workload"
)

// BenchmarkCompileMissPath prices the content cache's miss path: one
// compileClosure (clone the closure, inline.Apply, opt.Function,
// codegen.FunctionSize) per distinct closure. The closures are fixed up
// front: every function's closure under no inlining, the -Os heuristic,
// full inlining and two random configurations, over the first unit of
// each SPEC-like profile. Each iteration prices them all into a fresh
// FnCache, so every one is a miss; ns/op, B/op and allocs/op are per full
// set. Recorded in BENCH_search.json.
func BenchmarkCompileMissPath(b *testing.B) {
	type miss struct {
		c       *Compiler
		fi      *funcInfo
		members []*funcInfo
		cfg     *callgraph.Config
		key     FnKey
	}
	var set []miss
	seen := make(map[FnKey]bool)
	rng := rand.New(rand.NewSource(1))
	for _, p := range workload.SPECProfiles() {
		c := New(workload.Generate(p).Files[0].Module, codegen.TargetX86)
		g := c.Graph()
		all := callgraph.NewConfig()
		for _, e := range g.Edges {
			all.Set(e.Site, true)
		}
		cfgs := []*callgraph.Config{callgraph.NewConfig(), heuristic.OsConfig(c.Module(), g), all}
		for r := 0; r < 2; r++ {
			cfg := callgraph.NewConfig()
			for _, e := range g.Edges {
				cfg.Set(e.Site, rng.Intn(2) == 0)
			}
			cfgs = append(cfgs, cfg)
		}
		for _, cfg := range cfgs {
			for _, fi := range c.memo.funcs {
				members := c.memo.closure(new(dirtyScratch), fi, cfg)
				key := c.closureKey(fi, members, cfg)
				if !seen[key] {
					seen[key] = true
					set = append(set, miss{c, fi, members, cfg, key})
				}
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var hits, misses atomic.Int64
	for i := 0; i < b.N; i++ {
		fc := NewFnCache()
		for _, m := range set {
			if fc.sizeOf(m.key, &hits, &misses, func() int {
				return m.c.compileClosure(m.fi, m.members, m.cfg)
			}) <= 0 {
				b.Fatal("bad size")
			}
		}
	}
	b.ReportMetric(float64(len(set)), "closures/op")
}
