package autotune

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/lang"
)

// allocsPerProbe bounds what a warm size round allocates per probe: the
// config-table key each miss keeps, its share of the table's growth, the
// content-cache keys of the few closures too big for its pooled maps, and
// the round's own lists spread over its probes. A probe that cloned its
// configuration or allocated its handle would add at least two.
const allocsPerProbe = 2.0

// roundSource is a module of 310 candidate sites whose closures stay
// small: an entry calling 10 groups, each calling 10 helpers, each calling
// two of 10 leaves.
func roundSource() string {
	var b strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&b, "func leaf%d(x) { return x * %d + 1; }\n", i, i+2)
	}
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "func mid%d(x) { return leaf%d(x) + leaf%d(x + 1); }\n", i, i%10, (i+1)%10)
	}
	for g := 0; g < 10; g++ {
		fmt.Fprintf(&b, "func group%d(x) {\n  var s = 0;\n", g)
		for i := 10 * g; i < 10*g+10; i++ {
			fmt.Fprintf(&b, "  s = s + mid%d(x);\n", i)
		}
		b.WriteString("  return s;\n}\n")
	}
	b.WriteString("export func entry(n) {\n  var s = 0;\n")
	for g := 0; g < 10; g++ {
		fmt.Fprintf(&b, "  s = s + group%d(n);\n", g)
	}
	b.WriteString("  return s;\n}\n")
	return b.String()
}

// TestWarmRoundAllocatesNoProbeMemory: a size round from labels its
// compiler never priced, over a content cache a twin compiler warmed with
// the same round, misses the config table at every probe, so every probe
// derives a handle; yet the probes' configurations and handles are the
// worker's memory, rewritten in place, so the round allocates at most a
// small constant per probe. The compiler has run a round before (from the
// clean slate), so its one-off dirty-set index is built.
func TestWarmRoundAllocatesNoProbeMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's pools drop their items")
	}
	mod, err := lang.Compile("round", roundSource())
	if err != nil {
		t.Fatal(err)
	}
	fc := compile.NewFnCache()
	twin := compile.NewWithOptions(mod, codegen.TargetX86, compile.Options{FnCache: fc})
	init := callgraph.NewConfig() // every leaf call inlined
	for _, e := range twin.Graph().Edges {
		if strings.HasPrefix(e.Callee, "leaf") {
			init.Set(e.Site, true)
		}
	}
	NewSession(twin, init, 1).Step()

	c := compile.NewWithOptions(mod, codegen.TargetX86, compile.Options{FnCache: fc})
	NewSession(c, nil, 1).Step()
	s := NewSession(c, init, 1)
	evals, compiled := c.Evaluations(), c.FuncCacheStats().Misses
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Step()
	runtime.ReadMemStats(&after)
	probes := int64(len(s.sites))
	if misses := c.Evaluations() - evals; misses < probes {
		t.Fatalf("%d config-table misses for %d probes: the round did not derive every probe", misses, probes)
	}
	if n := c.FuncCacheStats().Misses - compiled; n != 0 {
		t.Fatalf("a round on a warm content cache compiled %d closures", n)
	}
	perProbe := float64(after.Mallocs-before.Mallocs) / float64(probes)
	t.Logf("%d probes, %.2f allocations per probe", probes, perProbe)
	if perProbe > allocsPerProbe {
		t.Fatalf("%.2f allocations per probe, more than %.1f", perProbe, allocsPerProbe)
	}
}
