package compile

import (
	"math/rand"
	"sync"
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/heuristic"
	"optinline/internal/ir"
	"optinline/internal/workload"
)

// closureCase is one closure compile and what the fresh-clone path makes
// of it.
type closureCase struct {
	p       *CyclePricer // only its compiler and bodyCost are used
	fi      *funcInfo
	members []*funcInfo
	cfg     *callgraph.Config
	size    int
	cost    int64
}

// price compiles the closure with its clones carved from a (fresh when a
// is nil) and reads the size and cycle cost the compile engine keeps.
func (cc *closureCase) price(a *ir.Arena) (int, int64) {
	fn := cc.p.c.optimizeClosure(cc.fi, cc.members, cc.cfg, a)
	if fn == nil {
		return InfSize, 0
	}
	return codegen.FunctionSize(fn, cc.p.c.target), cc.p.bodyCost(fn)
}

// arenaCases returns closures of the first unit of every SPEC-like
// profiles under no inlining, the -Os heuristic, full inlining and a
// random configuration, interleaved across the units so that consecutive
// compiles come from different modules.
func arenaCases(t *testing.T) []*closureCase {
	rng := rand.New(rand.NewSource(20))
	var perUnit [][]*closureCase
	for _, prof := range workload.SPECProfiles() {
		c := New(workload.Generate(prof).Files[0].Module, codegen.TargetX86)
		p := &CyclePricer{c: c}
		g := c.Graph()
		all, random := callgraph.NewConfig(), callgraph.NewConfig()
		for _, e := range g.Edges {
			all.Set(e.Site, true)
			random.Set(e.Site, rng.Intn(2) == 0)
		}
		var cases []*closureCase
		for _, cfg := range []*callgraph.Config{callgraph.NewConfig(), heuristic.OsConfig(c.Module(), g), all, random} {
			for _, fi := range c.memo.funcs {
				cc := &closureCase{p: p, fi: fi, members: c.memo.closure(fi, cfg), cfg: cfg}
				cc.size, cc.cost = cc.price(nil)
				cases = append(cases, cc)
			}
		}
		perUnit = append(perUnit, cases)
	}
	var out []*closureCase
	for i, added := 0, true; added; i++ {
		added = false
		for _, cases := range perUnit {
			if i < len(cases) {
				out, added = append(out, cases[i]), true
			}
		}
	}
	if len(out) < 100 {
		t.Fatalf("only %d closures", len(out))
	}
	return out
}

// TestClosureArenaMatchesFreshClones prices closures of different modules
// in turn through one reused arena, so a slot not zeroed or not carved
// afresh would carry one compile's IR into the next, and requires every
// size and cycle cost to equal the fresh-clone path's. Then goroutines
// price the same closures at once, each through its own arena and through
// the pooled path the content cache uses, all reading the same base
// functions: under -race this fails if an arena compile writes into
// shared IR.
func TestClosureArenaMatchesFreshClones(t *testing.T) {
	cases := arenaCases(t)
	var a ir.Arena
	for i, cc := range cases {
		size, cost := cc.price(&a)
		a.Release()
		if size != cc.size || cost != cc.cost {
			t.Fatalf("closure %d (%s): arena (%d bytes, %d cycles), fresh (%d, %d)", i, cc.fi.name, size, cost, cc.size, cc.cost)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var a ir.Arena
			for k := range cases {
				cc := cases[(k+w*len(cases)/4)%len(cases)]
				size, cost := cc.price(&a)
				a.Release()
				if size != cc.size || cost != cc.cost {
					t.Errorf("worker %d: %s: arena (%d, %d), fresh (%d, %d)", w, cc.fi.name, size, cost, cc.size, cc.cost)
					return
				}
				if got := cc.p.c.compileClosure(cc.fi, cc.members, cc.cfg); got != cc.size {
					t.Errorf("worker %d: %s: pooled compile %d bytes, fresh %d", w, cc.fi.name, got, cc.size)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
