package experiments

import (
	"fmt"

	"optinline/internal/autotune"
	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/heuristic"
	"optinline/internal/link"
	"optinline/internal/search"
	"optinline/internal/workload"
)

// linkedLinker builds the linker for one linked profile, sharing the
// harness's content-addressed function cache across every compiler it
// spawns (per-component shards included).
func (h *Harness) linkedLinker(name string) (workload.LinkedProfile, *link.Linker, error) {
	lp, ok := workload.LinkedProfileByName(name)
	if !ok {
		return lp, nil, fmt.Errorf("linked profile %q missing", name)
	}
	l, err := link.New(link.CorpusTUs(workload.GenerateLinked(lp)), link.Options{})
	return lp, l, err
}

// linkedShardOpts is the shared shard configuration: the harness's compile
// options (checked mode solves on one merged compiler) and workers.
func (h *Harness) linkedShardOpts() link.ShardOptions {
	return link.ShardOptions{
		Target:  codegen.TargetX86,
		Compile: h.compileOptions(),
		Workers: h.cfg.Workers,
	}
}

// LinkedCase is the cross-module (LTO-style) experiment: linking the
// translation units of a multi-file corpus into one module turns cross-TU
// calls into candidates (the paper's amalgamation effect, Section 5.2.3,
// applied at link level), and the component-sharded search solves the
// merged module exactly at a scale one compiler would pay for in memory.
//
// linked-s is solved optimally, separate-vs-linked; linked-m is autotuned
// the same way. Both modes (sharded and the checked merged reference) print
// identical text.
func (h *Harness) LinkedCase() Result {
	var text string

	// linked-s: exact optima, separate compilation vs linked module.
	{
		lp, l, err := h.linkedLinker("linked-s")
		if err != nil {
			return Result{ID: "linked-case", Title: "Cross-module linking", Text: "error: " + err.Error()}
		}
		p := l.Plan()
		sepNoInline, sepOpt, sepSites := 0, 0, 0
		for _, tu := range l.TUs() {
			mod, err := tu.Load()
			if err != nil {
				return Result{ID: "linked-case", Title: "Cross-module linking", Text: "error: " + err.Error()}
			}
			comp := compile.NewWithOptions(mod, codegen.TargetX86, h.compileOptions())
			sepNoInline += comp.Size(callgraph.NewConfig())
			res, ok := search.Optimal(comp, search.Options{Workers: h.cfg.Workers, MaxSpace: 1 << 20})
			if !ok {
				return Result{ID: "linked-case", Title: "Cross-module linking", Text: "error: per-TU space over cap"}
			}
			sepOpt += res.Size
			sepSites += len(comp.Graph().Edges)
		}
		res, ok, err := l.OptimalSearch(link.SearchOptions{ShardOptions: h.linkedShardOpts(), MaxSpace: 1 << 20})
		if err != nil || !ok {
			return Result{ID: "linked-case", Title: "Cross-module linking", Text: fmt.Sprintf("error: linked search ok=%v err=%v", ok, err)}
		}
		var maxComp link.ComponentStat
		for _, cs := range res.Components {
			if cs.Space > maxComp.Space {
				maxComp = cs
			}
		}
		text += fmt.Sprintf(
			"%s (optimal): %d TUs -> %d functions; %d candidate sites after linking\n"+
				"  (%d cross-TU, %d file-local names renamed apart, %d components)\n"+
				"  separate compilation: no-inline %d bytes, per-TU optima sum %d bytes (%d sites reachable)\n"+
				"  linked module:        optimal %d bytes = %s of separate optima, inlining %d of %d sites\n"+
				"  largest component: %d sites, space %d; total space %d evaluations\n",
			lp.Name, len(p.TUs), len(p.Funcs), len(p.Edges),
			p.CrossTU, p.Renamed, len(p.Components),
			sepNoInline, sepOpt, sepSites,
			res.Size, pct(float64(res.Size), float64(sepOpt)), res.Config.InlineCount(), len(p.Edges),
			maxComp.Edges, maxComp.Space, res.SpaceTotal)
	}

	// linked-m: the autotuner at the same split, separate vs linked.
	{
		lp, l, err := h.linkedLinker("linked-m")
		if err != nil {
			return Result{ID: "linked-case", Title: "Cross-module linking", Text: "error: " + err.Error()}
		}
		p := l.Plan()
		sepTuned := 0
		for _, tu := range l.TUs() {
			mod, err := tu.Load()
			if err != nil {
				return Result{ID: "linked-case", Title: "Cross-module linking", Text: "error: " + err.Error()}
			}
			comp := compile.NewWithOptions(mod, codegen.TargetX86, h.compileOptions())
			hc := heuristic.OsConfig(comp.Module(), comp.Graph())
			res := autotune.Tune(comp, hc, autotune.Options{Rounds: h.cfg.Rounds, Workers: h.cfg.Workers})
			sepTuned += res.Size
		}
		tr, err := l.Tune(link.TuneOptions{ShardOptions: h.linkedShardOpts(), Rounds: h.cfg.Rounds, Init: link.InitOs})
		if err != nil {
			return Result{ID: "linked-case", Title: "Cross-module linking", Text: "error: " + err.Error()}
		}
		text += fmt.Sprintf(
			"\n%s (autotuned, %d rounds, -Os init): %d TUs, %d sites, %d components\n"+
				"  separate per-TU tuned sum: %d bytes\n"+
				"  linked sharded tuner:      %d bytes = %s of separate, inlining %d of %d sites\n",
			lp.Name, h.cfg.Rounds, len(p.TUs), len(p.Edges), len(p.Components),
			sepTuned,
			tr.Result.Size, pct(float64(tr.Result.Size), float64(sepTuned)),
			tr.Result.Config.InlineCount(), len(p.Edges))
	}
	return Result{ID: "linked-case", Title: "Cross-module linking case study (LTO-style amalgamation)", Text: text}
}

// LinkedScale is the heavy scale experiment behind the headline numbers:
// linked mega-modules 10x and 30x the largest single unit (the 600-edge
// SQLite amalgamation), component-sharded autotuning on the 10x module.
// Not part of IDs()/RunAll — run it explicitly (inlinebench -exp
// linked-scale).
func (h *Harness) LinkedScale() Result {
	var text string
	for _, name := range []string{"linked-x10", "linked-x30"} {
		lp, l, err := h.linkedLinker(name)
		if err != nil {
			return Result{ID: "linked-scale", Title: "Linked-module scale", Text: "error: " + err.Error()}
		}
		p := l.Plan()
		maxEdges := 0
		for ci := range p.Components {
			if n := len(p.ComponentEdges(ci)); n > maxEdges {
				maxEdges = n
			}
		}
		text += fmt.Sprintf(
			"%s: %d TUs -> %d functions, %d candidate sites (%d cross-TU, %d renamed)\n"+
				"  %d components, largest %d sites (vs sqlite-amalgamation's 600 total)\n",
			lp.Name, len(p.TUs), len(p.Funcs), len(p.Edges), p.CrossTU, p.Renamed,
			len(p.Components), maxEdges)
		if name == "linked-x10" {
			tr, err := l.Tune(link.TuneOptions{ShardOptions: h.linkedShardOpts(), Rounds: h.cfg.Rounds, Init: link.InitOs})
			if err != nil {
				return Result{ID: "linked-scale", Title: "Linked-module scale", Text: "error: " + err.Error()}
			}
			res := tr.Result
			text += fmt.Sprintf("  sharded tuner (%d rounds, -Os init): init %d -> best %d bytes (%s), inlining %d sites\n",
				h.cfg.Rounds, res.InitSize, res.Size,
				pct(float64(res.Size), float64(res.InitSize)), res.Config.InlineCount())
			for _, r := range res.Rounds {
				text += fmt.Sprintf("    round %d: %d bytes, %d toggles\n", r.Round, r.Size, r.Toggles)
			}
		}
	}
	return Result{ID: "linked-scale", Title: "Linked-module scale (10x / 30x the largest unit)", Text: text}
}
