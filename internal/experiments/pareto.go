package experiments

import (
	"fmt"
	"math"

	"optinline/internal/autotune"
	"optinline/internal/interp"
	"optinline/internal/stats"
	"optinline/internal/workload"
)

// The pareto experiment bounds its per-file replay work: profiles with more
// frame events than this are skipped (and counted), like the fuel rule
// skips files whose dynamic call tree the interpreter cannot finish.
const paretoEventCap = 80_000

// paretoTightCache is the pressured i-cache capacity (bytes) of the second
// measurement column. One profile backs both geometries — the frame
// sequence does not depend on cache contents.
const paretoTightCache = 512

// paretoLambdas are the interior weights of the frontier sweep.
var paretoLambdas = []float64{0.01, 0.1, 1}

// Pareto extends the paper's Section 6 sketch: with cycles as a first-class
// objective, tune every profiled file of the SPECspeed-like subset at both
// ends of the size/speed spectrum and along a lambda sweep, and report how
// much runtime the size-optimal configuration leaves on the table relative
// to the speed-optimal one — at the default i-cache and under cache
// pressure, where the paper expects the trade-off to open up.
func (h *Harness) Pareto() Result {
	subset := workload.SPECSpeedSubset()
	type fileOut struct {
		bench            string
		ok               bool
		relDef, relTight float64 // size-opt cycles / speed-opt cycles, %
		spread           float64 // speed-opt bytes / size-opt bytes, %
		frontier         int
	}
	var files []*fileData
	for _, bench := range h.order {
		if !subset[bench] {
			continue
		}
		files = append(files, h.byName[bench]...)
	}
	outs := make([]fileOut, len(files))
	parallelFor(len(files), h.cfg.Workers, func(i int) {
		fd := files[i]
		outs[i].bench = fd.bench
		pr := fd.cyclePricer(0)
		if pr == nil || pr.Events() > paretoEventCap {
			return
		}
		opts := autotune.Options{Rounds: h.cfg.Rounds, Workers: 1}
		sizeEnd := autotune.TuneWeighted(fd.comp, pr, 0, nil, opts)
		speedEnd := autotune.TuneCycles(fd.comp, pr, nil, opts)
		if speedEnd.Cycles <= 0 {
			return
		}
		pts := []autotune.ParetoPoint{
			{Lambda: 0, Size: sizeEnd.Size, Cycles: sizeEnd.Cycles, Config: sizeEnd.Config},
		}
		for _, l := range paretoLambdas {
			r := autotune.TuneWeighted(fd.comp, pr, l, nil, opts)
			pts = append(pts, autotune.ParetoPoint{Lambda: l, Size: r.Size, Cycles: r.Cycles, Config: r.Config})
		}
		pts = append(pts, autotune.ParetoPoint{Lambda: math.Inf(1), Size: speedEnd.Size, Cycles: speedEnd.Cycles, Config: speedEnd.Config})

		// Under cache pressure the size-optimal labels stay the same (bytes
		// do not depend on the cache), so reprice that config instead of
		// re-tuning; only the speed-optimal end needs its own session.
		prT := fd.cyclePricer(paretoTightCache)
		speedT := autotune.TuneCycles(fd.comp, prT, nil, opts)
		if speedT.Cycles <= 0 {
			return
		}
		outs[i] = fileOut{
			bench:    fd.bench,
			ok:       true,
			relDef:   float64(sizeEnd.Cycles) / float64(speedEnd.Cycles) * 100,
			relTight: float64(prT.Cycles(sizeEnd.Config)) / float64(speedT.Cycles) * 100,
			spread:   float64(speedEnd.Size) / float64(sizeEnd.Size) * 100,
			frontier: len(autotune.Frontier(pts)),
		}
	})

	type agg struct {
		relDef, relTight, spread []float64
		frontier                 int
		measured, skipped        int
	}
	byBench := make(map[string]*agg)
	for _, o := range outs {
		a := byBench[o.bench]
		if a == nil {
			a = &agg{}
			byBench[o.bench] = a
		}
		if !o.ok {
			a.skipped++
			continue
		}
		a.measured++
		a.relDef = append(a.relDef, o.relDef)
		a.relTight = append(a.relTight, o.relTight)
		a.spread = append(a.spread, o.spread)
		a.frontier += o.frontier
	}

	var tb stats.Table
	tb.Header = []string{"benchmark", "sizeopt/speedopt cycles", fmt.Sprintf("at %dB cache", paretoTightCache), "speedopt/sizeopt bytes", "frontier pts", "files"}
	var allDef, allTight []float64
	narrowed, widened := 0, 0
	for _, bench := range h.order {
		if !subset[bench] {
			continue
		}
		a := byBench[bench]
		if a == nil || a.measured == 0 {
			tb.AddRow(bench, "n/a", "n/a", "n/a", "n/a", 0)
			continue
		}
		def, tight := stats.GeoMean(a.relDef), stats.GeoMean(a.relTight)
		allDef = append(allDef, def)
		allTight = append(allTight, tight)
		switch {
		case tight < def-0.05:
			narrowed++
		case tight > def+0.05:
			widened++
		}
		tb.AddRow(bench,
			fmt.Sprintf("%.1f%%", def),
			fmt.Sprintf("%.1f%%", tight),
			fmt.Sprintf("%.1f%%", stats.GeoMean(a.spread)),
			fmt.Sprintf("%.1f", float64(a.frontier)/float64(a.measured)),
			a.measured)
	}
	text := fmt.Sprintf(
		"Size/speed Pareto frontier over the SPECspeed-like subset, profiled\ncycle model (default %d-byte i-cache vs a pressured %d-byte one).\nEvery cell tunes to a fixpoint at lambda = 0 (size endpoint),\nlambda in %v, and cycles-only (speed endpoint).\n\n%s\nGeometric mean: size-optimal costs %.1f%% of speed-optimal cycles at the\ndefault cache, %.1f%% under pressure. The paper's single-digit gap does\nnot transfer verbatim to this corpus: its C functions amortize the call\noverhead over bodies orders of magnitude larger, while the generated\nfunctions are call-dominated, so cycle tuning has far more to exploit\n(see EXPERIMENTS.md). The paper's cache-pressure mechanism does\nreproduce: pricing misses pushes speed tuning toward small code, so\npressure moves the two optima together on %d benchmark(s) and apart on\n%d.\n",
		interp.DefaultCacheBytes, paretoTightCache, paretoLambdas, tb.String(),
		stats.GeoMean(allDef), stats.GeoMean(allTight), narrowed, widened)
	return Result{ID: "pareto", Title: "Size x speed Pareto autotuning", Text: text}
}
