package experiments

import (
	"fmt"

	"optinline/internal/autotune"
	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/heuristic"
	"optinline/internal/stats"
	"optinline/internal/workload"
)

// LLVMCase reproduces Section 5.2.3's LLVM case study: heuristic-initialized
// round-based tuning over the llvm-lib corpus (files with much larger call
// graphs than the SPEC-like suite). The paper reports a 15.21% total size
// reduction over three rounds.
func (h *Harness) LLVMCase() Result {
	bench := workload.LLVMCodebase()
	rounds := 3
	var tb stats.Table
	tb.Header = []string{"file", "calls", "-Os size", "tuned", "rel size"}
	var totalHeur, totalTuned float64
	files := bench.Files
	if h.cfg.Scale < 1 {
		n := scaleInt(len(files), h.cfg.Scale)
		files = files[:n]
	}
	type row struct {
		name       string
		edges      int
		heur, tune int
	}
	rows := make([]row, len(files))
	parallelFor(len(files), 1, func(i int) { // files run serially; edges within a file run in parallel
		f := files[i]
		comp := compile.NewWithOptions(f.Module, codegen.TargetX86, h.compileOptions())
		g := comp.Graph()
		hc := heuristic.OsConfig(comp.Module(), g)
		heurSize := comp.Size(hc)
		res := autotune.Tune(comp, hc, autotune.Options{Rounds: rounds, Workers: h.cfg.Workers})
		rows[i] = row{name: f.Name, edges: len(g.Edges), heur: heurSize, tune: res.Size}
	})
	for _, r := range rows {
		totalHeur += float64(r.heur)
		totalTuned += float64(r.tune)
		tb.AddRow(r.name, r.edges, r.heur, r.tune, fmt.Sprintf("%.1f%%", float64(r.tune)/float64(r.heur)*100))
	}
	reduction := (1 - totalTuned/totalHeur) * 100
	text := fmt.Sprintf(
		"Heuristic-initialized tuning (%d rounds) of the llvm-lib corpus.\n\n%s\nTotal size reduction: %.2f%% (paper 15.21%% over 3 rounds).\n",
		rounds, tb.String(), reduction)
	return Result{ID: "llvm-case", Title: "LLVM codebase case study (Section 5.2.3)", Text: text}
}

// SQLiteCase reproduces Section 5.2.3's SQLite case study: the amalgamation
// tuned for the X86 target (clean slate and heuristic-init, 4 rounds each)
// and for the WASM-like target, where the baseline disables inlining (as
// emcc -Os does) and the -Os heuristic inflates the binary.
func (h *Harness) SQLiteCase() Result {
	f := workload.SQLiteAmalgamation()
	if h.cfg.Scale < 1 {
		// A scaled-down session for benches: regenerate a smaller unit.
		f = smallSQLite(h.cfg.Scale)
	}
	rounds := h.cfg.Rounds
	var text string

	// X86: baseline is the -Os heuristic.
	{
		comp := compile.NewWithOptions(f.Module, codegen.TargetX86, h.compileOptions())
		g := comp.Graph()
		hc := heuristic.OsConfig(comp.Module(), g)
		heurSize := comp.Size(hc)
		clean := autotune.Tune(comp, nil, autotune.Options{Rounds: rounds, Workers: h.cfg.Workers})
		inited := autotune.Tune(comp, hc, autotune.Options{Rounds: rounds, Workers: h.cfg.Workers})
		text += fmt.Sprintf(
			"X86 (%d inlinable calls): -Os %d bytes.\n  clean slate: %.1f%% of -Os (paper 89.7%%)\n  heur-init:   %.1f%% of -Os (paper 91.6%%)\n",
			len(g.Edges), heurSize,
			float64(clean.Size)/float64(heurSize)*100,
			float64(inited.Size)/float64(heurSize)*100)
	}

	// WASM: baseline disables inlining entirely.
	{
		comp := compile.NewWithOptions(f.Module, codegen.TargetWASM, h.compileOptions())
		g := comp.Graph()
		noInline := comp.Size(callgraph.NewConfig())
		hc := heuristic.OsConfig(comp.Module(), g)
		heurSize := comp.Size(hc)
		clean := autotune.Tune(comp, nil, autotune.Options{Rounds: rounds, Workers: h.cfg.Workers})
		text += fmt.Sprintf(
			"\nWASM: no-inline baseline %d bytes.\n  -Os heuristic: %.1f%% of baseline (paper +18.3%%)\n  tuned:         %.1f%% of baseline (paper -0.96..-1.26%%)\n",
			noInline,
			float64(heurSize)/float64(noInline)*100,
			float64(clean.Size)/float64(noInline)*100)
	}
	return Result{ID: "sqlite-case", Title: "SQLite case study (Section 5.2.3)", Text: text}
}

func smallSQLite(scale float64) workload.File {
	p := workload.Profile{
		Name: "sqlite-small", Files: 1,
		TotalEdges:   scaleInt(600, scale),
		ConstArgProb: 0.4, HubProb: 0.3, BigBodyProb: 0.25, LoopProb: 0.3,
		RecProb: 0.08, BranchProb: 0.5, MultiRootPct: 0.12,
	}
	return workload.Generate(p).Files[0]
}
