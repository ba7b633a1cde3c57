package search

import (
	"math/rand"
	"testing"

	"optinline/internal/codegen"
	"optinline/internal/compile"
)

// TestOptimalFnCacheMatchesNoFnCache: the search over the content-addressed
// function cache must match checked compilation mode — which compiles every
// configuration fresh, with no function cache — bit for bit in optimal size,
// configuration key, space size, and evaluation count, whether or not the
// cache is shared with (and warmed by) another compiler.
func TestOptimalFnCacheMatchesNoFnCache(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	trials, hits := 0, int64(0)
	for trials < 12 {
		m := randomModule(rng)
		cached := compile.New(m, codegen.TargetX86)
		if len(cached.Graph().Edges) == 0 {
			continue
		}
		trials++
		// A second compiler on the first one's (now warm) cache: every
		// closure hits, and the counters must not notice.
		warm := compile.NewWithOptions(m, codegen.TargetX86, compile.Options{FnCache: cached.FnCache()})
		chk := compile.NewWithOptions(m, codegen.TargetX86, compile.Options{Check: true})
		rc, ok1 := Optimal(cached, Options{})
		rl, ok2 := Optimal(warm, Options{})
		rk, ok3 := Optimal(chk, Options{})
		if err := chk.CheckFailure(); err != nil {
			t.Fatalf("trial %d: checked search: %v\nmodule:\n%s", trials, err, m.String())
		}
		if ok1 != ok2 || ok1 != ok3 {
			t.Fatalf("trial %d: ok diverges: %v / %v / %v", trials, ok1, ok2, ok3)
		}
		if rc.Size != rl.Size || rc.Size != rk.Size || rc.SpaceSize != rl.SpaceSize || rc.SpaceSize != rk.SpaceSize {
			t.Fatalf("trial %d: fncache %d / warm %d / checked %d (spaces %d vs %d)\nmodule:\n%s",
				trials, rc.Size, rl.Size, rk.Size, rc.SpaceSize, rl.SpaceSize, m.String())
		}
		if rc.Config.Key() != rl.Config.Key() || rc.Config.Key() != rk.Config.Key() {
			t.Fatalf("trial %d: optimal config keys diverge: %q / %q / %q",
				trials, rc.Config.Key(), rl.Config.Key(), rk.Config.Key())
		}
		if rc.Evaluations != rl.Evaluations || rc.Evaluations != rk.Evaluations {
			t.Fatalf("trial %d: evaluation counters diverge: cold %d / warm %d / checked %d",
				trials, rc.Evaluations, rl.Evaluations, rk.Evaluations)
		}
		hits += cached.FnCache().Stats().Hits
	}
	if hits == 0 {
		t.Fatal("content cache never hit across the search corpus")
	}
}
