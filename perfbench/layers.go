package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/inline"
	"optinline/internal/interp"
	"optinline/internal/ir"
	"optinline/internal/opt"
	"optinline/internal/source"
)

// tracedRun is what a traced run measured: the workload untraced, then
// traced, on the same inputs.
type tracedRun struct {
	untraced, traced phase
	tr               *tracer
}

// layers derives the per-layer metrics from the traced passes, replays
// the layer calls behind their answers, prints the self-time tables and
// saves the spans.
func (r *report) layers() {
	t := r.traced
	v := r.values
	samples := t.traced.samples
	n := float64(len(samples))

	// The request path: each client round trip and the ServeHTTP inside it.
	t.tr.mu.Lock()
	handle := map[int]time.Duration{}
	for _, s := range t.tr.spans {
		if s.Parent >= 0 && strings.HasPrefix(s.Name, "server.") {
			handle[s.Parent] = time.Duration(s.End - s.Start)
		}
	}
	t.tr.mu.Unlock()
	var handles, transports []time.Duration
	byKind := map[string][]time.Duration{}
	ops := map[string]float64{}
	var space, probes, kept float64
	for _, s := range samples {
		ops[s.op.kind]++
		byKind[s.op.kind] = append(byKind[s.op.kind], s.lat)
		if h, ok := handle[s.span]; ok {
			handles = append(handles, h)
			transports = append(transports, s.lat-h)
		}
		var resp struct {
			SpaceSize uint64 `json:"spaceSize"`
			Rounds    []struct {
				Inlined, NotInlined, Toggles int
			} `json:"rounds"`
		}
		if json.Unmarshal(s.body, &resp) != nil {
			continue
		}
		space += float64(resp.SpaceSize)
		for _, rd := range resp.Rounds {
			probes += float64(rd.Inlined + rd.NotInlined)
			kept += float64(rd.Toggles)
		}
	}
	v["server.handle_ms"] = ms(medianDur(handles))
	v["server.transport_ms"] = ms(medianDur(transports))
	v["link.patch_ms"] = ms(medianDur(byKind["link.patch"]))
	v["link.tune_ms"] = ms(medianDur(byKind["link.tune"]))
	v["search.evals_per_space"] = ratio(t.traced.stats["evaluations"], space)
	v["autotune.probes_per_op"] = ratio(probes, ops["tune"]+ops["tune.weighted"]+ops["link.tune"])
	v["autotune.kept_per_probe"] = ratio(kept, probes)

	// The daemon's counters over the traced passes.
	st := t.traced.stats
	v["server.queue_waited_ratio"] = ratio(st["queue.waited"], st["queue.granted"])
	v["server.pool_hit_ratio"] = ratio(st["pool.hits"], st["pool.hits"]+st["pool.built"])
	v["compile.evaluations_per_op"] = ratio(st["evaluations"], n)
	v["compile.fncache_hit_ratio"] = ratio(st["fn.hits"], st["fn.hits"]+st["fn.misses"])
	v["compile.fncache_misses_per_op"] = ratio(st["fn.misses"], n)
	v["compile.config_cache_hit_ratio"] = ratio(st["config.hits"], st["config.hits"]+st["config.misses"])
	v["compile.delta_dirty_per_eval"] = ratio(st["delta.dirty"], st["delta.evals"])
	v["search.pruned_subtrees_per_op"] = ratio(st["prune.subtrees"], ops["search"])
	v["search.memo_hit_ratio"] = ratio(st["prune.memoHits"], st["prune.memoHits"]+st["prune.memoMisses"])
	v["cycles.replay_events_per_op"] = ratio(st["cycle.replay"], ops["tune.weighted"])
	v["cycles.cost_cache_hit_ratio"] = ratio(st["cycle.costHits"], st["cycle.costHits"]+st["cycle.costMisses"])
	v["link.plan_reuse_ratio"] = ratio(st["link.planReuses"], st["link.patches"])
	v["link.result_cache_hit_ratio"] = ratio(st["relink.hits"], st["relink.hits"]+st["relink.misses"])

	// This process's runtime over the traced passes.
	rt, wall := t.traced.rt, t.traced.wall().Seconds()
	v["runtime.gc_cycles_per_s"] = ratio(rt["/gc/cycles/total:gc-cycles"], wall)
	v["runtime.gc_cpu_fraction"] = ratio(rt["/cpu/classes/gc/total:cpu-seconds"],
		rt["/cpu/classes/total:cpu-seconds"]-rt["/cpu/classes/idle:cpu-seconds"])
	v["runtime.alloc_mb_per_op"] = ratio(rt["/gc/heap/allocs:bytes"], n) / 1e6
	perOp := func(p phase) float64 { return ratio(p.wall().Seconds(), float64(len(p.samples))) }
	v["trace.overhead_pct"] = 100 * (ratio(perOp(t.traced), perOp(t.untraced)) - 1)

	means := r.replay(samples)
	v["ir.parse_ms_per_op"] = ms(means["replay.ir.parse"])
	v["ir.clone_us"] = float64(means["replay.ir.clone"]) / 1e3
	v["inline.apply_us"] = float64(means["replay.inline.apply"]) / 1e3
	v["opt.module_us"] = float64(means["replay.opt.module"]) / 1e3
	v["codegen.size_us"] = float64(means["replay.codegen.size"]) / 1e3
	v["interp.collect_ms_per_op"] = ms(means["replay.interp.collect"])

	r.selfTimeTables()
	t.tr.save(fmt.Sprintf("spans-%s-seed%d.json", r.workload, r.seed))
}

// replay re-runs, through the exported functions, the layer calls behind
// each distinct traced request, each as a span under that request's
// client span: parsing of every source a request carries; clone, inline,
// opt and codegen of every returned configuration; and the profiling
// interpretation behind every cycle objective. It returns each replayed
// layer's mean duration.
func (r *report) replay(samples []sample) map[string]time.Duration {
	tr := r.traced.tr
	tr.enabled.Store(true)
	defer tr.enabled.Store(false)
	sums, counts := map[string]time.Duration{}, map[string]int{}
	timed := func(s sample, name string, f func()) {
		sums[name] += tr.timed(s.req, name, s.span, f)
		counts[name]++
	}
	seen := map[string]bool{}
	for _, s := range samples {
		u := s.op.u
		if u == nil || seen[s.op.key] || s.span < 0 {
			continue
		}
		seen[s.op.key] = true
		// Parse errors cannot occur: the daemon parsed the same bytes and
		// answered 200, which the gate checks.
		timed(s, "replay.ir.parse", func() { _, _ = source.FromBytes(u.name, []byte(u.src)) })
		switch s.op.kind {
		case "search", "tune", "tune.weighted", "compile":
			var resp struct {
				InlineSites []int `json:"inlineSites"`
			}
			if json.Unmarshal(s.body, &resp) != nil {
				continue
			}
			c := compile.New(u.mod, codegen.TargetX86)
			cfg := callgraph.NewConfigOf(resp.InlineSites)
			var m *ir.Module
			timed(s, "replay.ir.clone", func() { m = c.Module().Clone() })
			// The configuration came from an answer the gate rebuilds from
			// scratch, so Apply's error is reported there.
			timed(s, "replay.inline.apply", func() { _ = inline.Apply(m, cfg, inline.Options{}) })
			timed(s, "replay.opt.module", func() {
				removable := c.Graph().CalleesAllInline(cfg)
				opt.RemoveDeadFunctions(m, func(name string) bool { return removable[name] })
				opt.Module(m)
			})
			timed(s, "replay.codegen.size", func() { codegen.ModuleSize(m, codegen.TargetX86) })
		}
		if s.op.kind == "tune.weighted" {
			base, _, err := freshBuild(u.mod, nil)
			if err != nil {
				continue
			}
			timed(s, "replay.interp.collect", func() {
				_, _, _ = interp.Collect(base, "entry", entryArgs, interp.Options{Fuel: profileFuel})
			})
		}
	}
	means := map[string]time.Duration{}
	for k, d := range sums {
		means[k] = d / time.Duration(counts[k])
	}
	return means
}

// selfTimeTables prints the per-layer self-time tables of the traced run
// and names the dominant layer of the request path and of a replayed
// whole-module compile.
func (r *report) selfTimeTables() {
	var path, replay []layerTime
	var pathTotal, replayTotal time.Duration
	for _, lt := range r.traced.tr.selfTimes() {
		if strings.HasPrefix(lt.name, "replay.") {
			replay = append(replay, lt)
			replayTotal += lt.self
		} else {
			path = append(path, lt)
			pathTotal += lt.self
		}
	}
	w := &r.notes
	section := func(title string, rows []layerTime, total time.Duration) {
		fmt.Fprintf(w, "\n%s\n%-28s %8s %12s %8s\n", title, "layer", "spans", "self ms", "share")
		for _, lt := range rows {
			fmt.Fprintf(w, "%-28s %8d %12.1f %7.1f%%\n", lt.name, lt.count, ms(lt.self), 100*ratio(float64(lt.self), float64(total)))
		}
	}
	section("request path self time (client.* self time is transport: round trip minus ServeHTTP)", path, pathTotal)
	section("replayed layer calls", replay, replayTotal)
	dominant := map[string]string{}
	if len(path) > 0 {
		dominant["requestPath"] = path[0].name
		fmt.Fprintf(w, "dominant layer of %s: %s (%.1f%% of request-path self time)\n",
			r.workload, path[0].name, 100*ratio(float64(path[0].self), float64(pathTotal)))
	}
	for _, lt := range replay { // largest first
		if lt.name != "replay.ir.parse" && lt.name != "replay.interp.collect" {
			dominant["compile"] = lt.name
			fmt.Fprintf(w, "dominant layer of a replayed whole-module compile: %s\n", lt.name)
			break
		}
	}
	fmt.Fprintf(w, "tracing overhead: %+.2f%% per op (traced minus untraced pass time)\n", r.values["trace.overhead_pct"])
	r.record["dominantLayer"] = dominant
}
