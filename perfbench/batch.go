package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/heuristic"
	"optinline/internal/search"
	"optinline/internal/server"
)

// phase is a run's measured passes.
type phase struct {
	walls   []time.Duration
	samples []sample // every request of the passes
	stats   counts   // daemon /stats deltas over the passes
	rt      counts   // this process's runtime/metrics deltas over the passes
}

func (p *phase) wall() time.Duration {
	var t time.Duration
	for _, w := range p.walls {
		t += w
	}
	return t
}

// measure runs one pass and folds it into the phase; the runtime deltas
// cover exactly the pass.
func (p *phase) measure(clients []*client, lists [][]*op) []sample {
	rt0 := readRuntime()
	samples, wall := runPass(clients, lists)
	p.rt = p.rt.add(readRuntime().sub(rt0))
	p.walls = append(p.walls, wall)
	p.samples = append(p.samples, samples...)
	return samples
}

// timing fills the end-to-end timing metrics from the timed phase.
func (r *report) timing(ph phase, setups []time.Duration) {
	lats := make([]time.Duration, len(ph.samples))
	for i, s := range ph.samples {
		lats[i] = s.lat
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p99, pct := tail(lats)
	r.values["throughput_ops_s"] = float64(len(ph.samples)) / ph.wall().Seconds()
	r.values["latency_p50_ms"] = ms(medianDur(lats))
	r.values["latency_p99_ms"] = ms(p99)
	r.values["setup_s"] = medianDur(setups).Seconds()
	r.values["peak_rss_mb"] = peakRSSMB()
	r.record["passes"] = len(ph.walls)
	r.record["timedRequests"] = len(ph.samples)
	r.record["tailPercentile"] = pct
	r.record["setupSamples"] = len(setups)
	r.record["gcCyclesTimed"] = ph.rt["/gc/cycles/total:gc-cycles"]
}

// coldStart starts a fresh daemon and waits for its first answered
// /healthz. One set-up sample is the time until the daemon listens: from
// then on the kernel queues connections. The readiness round trip is not
// timed; its loopback wake-ups varied by a third between runs.
func coldStart(tr *tracer) (*daemon, *client, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(tr)
	if err != nil {
		return nil, nil, 0, err
	}
	setup := time.Since(t0)
	c := newClient(d, 0, tr)
	if err := c.get("/healthz", nil); err != nil {
		c.close()
		d.stop()
		return nil, nil, 0, fmt.Errorf("daemon not ready: %w", err)
	}
	return d, c, setup, nil
}

// batchPhase runs whole passes over ops until at least d of pass time is
// measured. Each pass gets a fresh daemon and one client: a batch user
// pays the cache fill on every run.
func (r *report) batchPhase(ops []*op, d time.Duration, tr *tracer, setups *[]time.Duration) (phase, error) {
	var ph phase
	for len(ph.walls) == 0 || ph.wall() < d {
		// Each pass starts from a collected heap, as a fresh daemon process
		// would: the previous pass's garbage is not this pass's cost.
		runtime.GC()
		for i := 0; i < extraStarts; i++ {
			dmn, c, setup, err := coldStart(nil)
			if err != nil {
				return ph, err
			}
			c.close()
			dmn.stop()
			*setups = append(*setups, setup)
		}
		dmn, c, setup, err := coldStart(tr)
		if err != nil {
			return ph, err
		}
		*setups = append(*setups, setup)
		samples := ph.measure([]*client{c}, [][]*op{ops})
		st, err := c.stats()
		c.close()
		dmn.stop()
		if err != nil {
			return ph, err
		}
		ph.stats = ph.stats.add(st)
		r.answers.add(samples)
	}
	return ph, nil
}

// extraStarts is how many extra daemon start-ups a batch run times before
// each pass, so setup_s is a median over many samples spread across the
// whole run, as the passes are.
const extraStarts = 8

// runBatch is the measured part of a batch workload: the timed passes and,
// in a traced run, traced passes after them.
func (r *report) runBatch(ops []*op, o runOpts) error {
	var setups []time.Duration
	d := o.seconds
	if o.traced {
		d /= 2
	}
	ph, err := r.batchPhase(ops, d, nil, &setups)
	if err != nil {
		return err
	}
	r.timing(ph, setups)
	if !o.traced {
		return nil
	}
	tr := newTracer()
	tr.enabled.Store(true)
	tph, err := r.batchPhase(ops, d, tr, &setups)
	tr.enabled.Store(false)
	if err != nil {
		return err
	}
	r.traced = &tracedRun{untraced: ph, traced: tph, tr: tr}
	return nil
}

// runSearchCorpus: one /search per searchable file of the seeded SPEC-like
// corpus, one client, a cold daemon per pass.
func runSearchCorpus(seed int64, o runOpts) (*report, error) {
	units := specCorpus(seed, 1, exhaustiveCap)
	ops := make([]*op, len(units))
	for i, u := range units {
		ops[i] = newOp(u.name, "search", "/search",
			server.SearchRequest{Name: u.name, Source: u.src, MaxSpace: exhaustiveCap, Jobs: 1}, u)
	}
	r := newReport("search-corpus", seed, o)
	r.describe("files", units)
	if err := r.runBatch(ops, o); err != nil {
		return nil, err
	}
	var q quality
	parallel(len(ops), func(i int) {
		u := units[i]
		var resp server.SearchResponse
		if !r.decode(ops[i], &resp) {
			return
		}
		if !resp.Searched {
			r.gate.fail("%s: not searched (space %d)", u.name, resp.SpaceSize)
			return
		}
		if resp.OptimalSize > resp.HeuristicSize || resp.OptimalSize > resp.NoInlineSize {
			r.gate.fail("%s: optimal %d exceeds heuristic %d or no-inline %d",
				u.name, resp.OptimalSize, resp.HeuristicSize, resp.NoInlineSize)
		}
		if u.sites <= naiveSites {
			_, naive := search.NaiveOptimal(compile.New(u.mod, codegen.TargetX86))
			r.gate.expect(u.name+": optimum vs NaiveOptimal", resp.OptimalSize, naive)
		}
		q.add(r.gate.checkProgram(u.name+": optimal", u.mod, resp.InlineSites, resp.OptimalSize), true)
	})
	r.quality(&q)
	if o.traced {
		r.layers()
	}
	return r, nil
}

// runTuneCorpus: /tune from a clean slate and from -Os (4 rounds) on the
// large units, then the weighted objective on the profiled files; one
// client, a cold daemon per pass.
func runTuneCorpus(seed int64, o runOpts) (*report, error) {
	large, weighted := tuneUnits(seed)
	var ops []*op
	for _, u := range large {
		for _, init := range []string{"clean", "os"} {
			ops = append(ops, newOp(u.name+"/"+init, "tune", "/tune",
				server.TuneRequest{Name: u.name, Source: u.src, Init: init, Rounds: 4, Jobs: 1}, u))
		}
	}
	for _, u := range weighted {
		ops = append(ops, newOp(u.name+"/weighted", "tune.weighted", "/tune", server.TuneRequest{
			Name: u.name, Source: u.src, Objective: "weighted", Lambda: weightedLambda,
			Entry: "entry", Args: entryArgs, Fuel: profileFuel, Jobs: 1}, u))
	}
	r := newReport("tune-corpus", seed, o)
	r.describe("large", large)
	r.describe("weighted", weighted)
	if err := r.runBatch(ops, o); err != nil {
		return nil, err
	}
	var q quality
	parallel(len(ops), func(i int) {
		o := ops[i]
		var resp server.TuneResponse
		if !r.decode(o, &resp) {
			return
		}
		var initSites []int
		if resp.Init == "os" {
			c := compile.New(o.u.mod, codegen.TargetX86)
			initSites = heuristic.OsConfig(c.Module(), c.Graph()).InlineSites()
		}
		if _, initSize, err := freshBuild(o.u.mod, initSites); err != nil {
			r.gate.fail("%s: fresh init build: %v", o.key, err)
		} else {
			r.gate.expect(o.key+": init size", resp.InitSize, initSize)
		}
		p := r.gate.checkProgram(o.key+": tuned", o.u.mod, resp.InlineSites, resp.BestSize)
		cost := func(size int, cycles int64) float64 { return float64(size) + weightedLambda*float64(cycles) }
		switch {
		case o.kind == "tune.weighted" && cost(resp.BestSize, resp.BestCycles) > cost(resp.InitSize, resp.InitCycles):
			r.gate.fail("%s: tuned cost exceeds the init's", o.key)
		case o.kind == "tune" && resp.BestSize > resp.InitSize:
			r.gate.fail("%s: tuned size %d exceeds the init's %d", o.key, resp.BestSize, resp.InitSize)
		}
		q.add(p, o.kind == "tune.weighted")
	})
	r.quality(&q)
	if o.traced {
		r.layers()
	}
	return r, nil
}
