package link

import (
	"fmt"
	"runtime"
	"testing"

	"optinline/internal/autotune"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/search"
	"optinline/internal/workload"
)

// benchLinker builds a fresh linker over the named linked profile.
func benchLinker(b *testing.B, profile string) *Linker {
	b.Helper()
	lp, ok := workload.LinkedProfileByName(profile)
	if !ok {
		b.Fatalf("profile %s missing", profile)
	}
	l, err := New(CorpusTUs(workload.GenerateLinked(lp)), Options{})
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// BenchmarkLinkedSearchShardedVsNoShard times the full exact search over
// the linked-s mega-module two ways: per-component shards (each component
// gets its own compiler and the results merge) versus search.Optimal on one
// compiler over the materialized merged module (components still solved
// independently, but every evaluation prices the whole module). Results are
// identical by test; this measures the wall-clock and cache-pressure
// difference. On a 1-CPU host the sharded win is locality (smaller modules
// to clone and compile), not parallelism.
func BenchmarkLinkedSearchShardedVsNoShard(b *testing.B) {
	l := benchLinker(b, "linked-s")
	b.Run("sharded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, ok, err := l.OptimalSearch(SearchOptions{ShardOptions: ShardOptions{
				Target:  codegen.TargetX86,
				Compile: compile.Options{FnCache: compile.NewFnCache()},
			}})
			if err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
			if res.Size == 0 {
				b.Fatal("degenerate optimum")
			}
		}
	})
	b.Run("merged", func(b *testing.B) {
		mod, err := l.Link()
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			res, ok := search.Optimal(compile.New(mod, codegen.TargetX86), search.Options{})
			if !ok || res.Size == 0 {
				b.Fatalf("ok=%v size=%d", ok, res.Size)
			}
		}
	})
}

// BenchmarkLinkedTuneShardedVsNoShard times a fixed-round autotuning
// session over the linked-m module two ways: lockstep per-component shards
// versus autotune.Tune on one compiler over the merged module. Traces are
// identical by test (TestTuneShardedMatchesNoShard); this measures session
// cost.
func BenchmarkLinkedTuneShardedVsNoShard(b *testing.B) {
	l := benchLinker(b, "linked-m")
	b.Run("sharded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := l.Tune(TuneOptions{
				ShardOptions: ShardOptions{
					Target:  codegen.TargetX86,
					Compile: compile.Options{FnCache: compile.NewFnCache()},
				},
				Rounds: 2,
				Init:   InitOs,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Result.FinalSize == 0 {
				b.Fatal("degenerate tune")
			}
		}
	})
	b.Run("merged", func(b *testing.B) {
		mod, err := l.Link()
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			c := compile.New(mod, codegen.TargetX86)
			res := autotune.Tune(c, initConfig(InitOs, c), autotune.Options{Rounds: 2})
			if res.FinalSize == 0 {
				b.Fatal("degenerate tune")
			}
		}
	})
}

// BenchmarkLinkedPlanBuildScale builds the link plan (symbol resolution,
// renaming, cross-TU binding, and the streamed summary-based call graph)
// for every linked profile and reports, per profile, the live heap the
// plan retains beyond the input TUs versus what materializing the merged
// module costs. The plan's retained bytes per call-graph edge should stay
// roughly flat from linked-s to linked-x30 while the merged module grows
// with total code size — that gap is the point of the streamed build.
func BenchmarkLinkedPlanBuildScale(b *testing.B) {
	for _, lp := range workload.LinkedProfiles() {
		b.Run(lp.Name, func(b *testing.B) {
			tus := CorpusTUs(workload.GenerateLinked(lp))
			var planRetained, linkRetained uint64
			var edges int
			for i := 0; i < b.N; i++ {
				base := liveHeap()
				l, err := New(tus, Options{})
				if err != nil {
					b.Fatal(err)
				}
				afterPlan := liveHeap()
				merged, err := l.Link()
				if err != nil {
					b.Fatal(err)
				}
				afterLink := liveHeap()
				edges = len(l.Plan().Edges)
				planRetained = heapDelta(base, afterPlan)
				linkRetained = heapDelta(afterPlan, afterLink)
				runtime.KeepAlive(merged)
			}
			b.ReportMetric(float64(edges), "edges")
			b.ReportMetric(float64(planRetained), "plan-B")
			b.ReportMetric(float64(linkRetained), "merge-B")
			if edges > 0 {
				b.ReportMetric(float64(planRetained)/float64(edges), "plan-B/edge")
			}
		})
	}
}

// BenchmarkRelinkEditOneTU is the headline incremental re-link
// measurement: after editing one translation unit, a warm Session
// re-solves only the dirty component and replays every other component's
// cached result, while the cold baseline (what a batch CLI invocation
// costs) re-links and re-solves the whole corpus. Each iteration applies a
// fresh body-only edit to TU 0 (seed 3(i+1), always MutateLinkedTU kind 0,
// so the plan is reused and exactly one component's content key changes)
// and then re-queries. linked-s runs the exact search; linked-x10 — ten
// components, so ~1/10 of the work should survive an edit — runs the
// lockstep autotuner, the only tractable optimizer at 6400 sites.
// "solved/op" and "replayed/op" report the dirty-component accounting.
// Warm and cold answers are byte-identical by the relink differentials
// (TestSession*, FuzzRelinkDifferential); this measures only time.
func BenchmarkRelinkEditOneTU(b *testing.B) {
	cases := []struct {
		profile string
		tune    bool
		rounds  int
	}{
		{profile: "linked-s", tune: false},
		{profile: "linked-x10", tune: true, rounds: 2},
	}
	for _, tc := range cases {
		lp, ok := workload.LinkedProfileByName(tc.profile)
		if !ok {
			b.Fatalf("profile %s missing", tc.profile)
		}
		bench := workload.GenerateLinked(lp)
		tus := CorpusTUs(bench)
		editedTU := func(iter int) TU {
			m := workload.MutateLinkedTU(bench.Files[0].Module, 3*(iter+1))
			tu := ModuleTU(bench.Files[0].Name, m)
			tu.LocalGlobals = []string{workload.LinkedScratchGlobal}
			return tu
		}
		shard := func(fnc *compile.FnCache, workers int) ShardOptions {
			return ShardOptions{
				Target:  codegen.TargetX86,
				Compile: compile.Options{FnCache: fnc},
				Workers: workers,
			}
		}
		mode := "search"
		if tc.tune {
			mode = "tune"
		}

		b.Run(tc.profile+"/"+mode+"/warm", func(b *testing.B) {
			fnc := compile.NewFnCache()
			sess, err := NewSession(tus, SessionOptions{Results: NewComponentCache()})
			if err != nil {
				b.Fatal(err)
			}
			query := func() (RelinkInfo, error) {
				if tc.tune {
					_, info, err := sess.Tune(TuneOptions{
						ShardOptions: shard(fnc, 1), Rounds: tc.rounds, Init: InitOs,
					})
					return info, err
				}
				_, info, ok, err := sess.Search(SearchOptions{ShardOptions: shard(fnc, 1)})
				if err == nil && !ok {
					err = fmt.Errorf("space capped")
				}
				return info, err
			}
			// Prime outside the timed loop: the pristine corpus solves once,
			// as the daemon does when a session is created and first queried.
			if _, err := query(); err != nil {
				b.Fatal(err)
			}
			var solved, replayed int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Replace(0, editedTU(i)); err != nil {
					b.Fatal(err)
				}
				info, err := query()
				if err != nil {
					b.Fatal(err)
				}
				solved += info.ComponentsSolved
				replayed += info.ComponentsReplayed
			}
			b.ReportMetric(float64(solved)/float64(b.N), "solved/op")
			b.ReportMetric(float64(replayed)/float64(b.N), "replayed/op")
		})

		b.Run(tc.profile+"/"+mode+"/cold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cur := append([]TU(nil), tus...)
				cur[0] = editedTU(i)
				l, err := New(cur, Options{})
				if err != nil {
					b.Fatal(err)
				}
				fnc := compile.NewFnCache()
				if tc.tune {
					res, err := l.Tune(TuneOptions{
						ShardOptions: shard(fnc, 1), Rounds: tc.rounds, Init: InitOs,
					})
					if err != nil {
						b.Fatal(err)
					}
					if res.Result.FinalSize == 0 {
						b.Fatal("degenerate tune")
					}
				} else {
					res, ok, err := l.OptimalSearch(SearchOptions{ShardOptions: shard(fnc, 1)})
					if err != nil || !ok {
						b.Fatalf("ok=%v err=%v", ok, err)
					}
					if res.Size == 0 {
						b.Fatal("degenerate optimum")
					}
				}
			}
		})
	}
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func heapDelta(before, after uint64) uint64 {
	if after < before {
		return 0
	}
	return after - before
}

// BenchmarkLinkedScaleStats is not a timing benchmark: one iteration
// prints the scale proof for the mega-profiles (total inlinable sites vs
// the 600-edge sqlite-amalgamation unit, the largest pre-existing corpus
// module). Kept as a benchmark so it rides the -bench smoke in ci.sh.
func BenchmarkLinkedScaleStats(b *testing.B) {
	for _, name := range []string{"linked-x10", "linked-x30"} {
		b.Run(name, func(b *testing.B) {
			var l *Linker
			for i := 0; i < b.N; i++ {
				l = benchLinker(b, name)
			}
			p := l.Plan()
			b.ReportMetric(float64(len(p.Funcs)), "funcs")
			b.ReportMetric(float64(len(p.Edges)), "sites")
			b.ReportMetric(float64(len(p.Edges))/600.0, "x-sqlite")
			b.Logf("%s: %d TUs, %d funcs, %d sites (%d cross-TU)",
				name, len(p.TUs), len(p.Funcs), len(p.Edges), p.CrossTU)
		})
	}
}
