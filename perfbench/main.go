// Command perfbench is the repository's end-to-end benchmark. It serves
// the inlined daemon core — server.New(cfg).Handler(), the handler tree
// cmd/inlined serves — behind a loopback listener in its own process and
// reaches it only through the versioned HTTP+JSON API, over one of three
// seeded workloads. Every answer is checked outside the timed window.
//
// Usage (run.sh builds this package from the checkout first):
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --steady RUNS
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// per-layer run. --steady runs the workload RUNS times in each of two
// alternating sets and prints every metric's spread. The last line of
// stdout is the JSON result. README.md describes the workloads, the
// metrics and the rules that keep them steady.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// metricSpec is one reported metric: its name, unit and which way is better.
type metricSpec struct{ name, unit, better string }

// endToEnd are the metrics of the timed run (--trace 0).
var endToEnd = []metricSpec{
	{"throughput_ops_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"code_bytes", "bytes", "lower"},
	{"run_cycles", "cycles", "lower"},
}

// perLayer are the metrics of the traced run (--trace 1).
var perLayer = []metricSpec{
	{"server.handle_ms", "ms", "lower"},
	{"server.transport_ms", "ms", "lower"},
	{"server.queue_waited_ratio", "ratio", "lower"},
	{"server.pool_hit_ratio", "ratio", "higher"},
	{"ir.parse_ms_per_op", "ms", "lower"},
	{"compile.evaluations_per_op", "count", "lower"},
	{"compile.fncache_hit_ratio", "ratio", "higher"},
	{"compile.fncache_misses_per_op", "count", "lower"},
	{"compile.config_cache_hit_ratio", "ratio", "higher"},
	{"compile.delta_dirty_per_eval", "count", "lower"},
	{"ir.clone_us", "us", "lower"},
	{"inline.apply_us", "us", "lower"},
	{"opt.module_us", "us", "lower"},
	{"codegen.size_us", "us", "lower"},
	{"search.evals_per_space", "ratio", "lower"},
	{"search.pruned_subtrees_per_op", "count", "higher"},
	{"search.memo_hit_ratio", "ratio", "higher"},
	{"autotune.probes_per_op", "count", "lower"},
	{"autotune.kept_per_probe", "ratio", "higher"},
	{"cycles.replay_events_per_op", "count", "lower"},
	{"cycles.cost_cache_hit_ratio", "ratio", "higher"},
	{"interp.collect_ms_per_op", "ms", "lower"},
	{"link.patch_ms", "ms", "lower"},
	{"link.tune_ms", "ms", "lower"},
	{"link.plan_reuse_ratio", "ratio", "higher"},
	{"link.result_cache_hit_ratio", "ratio", "higher"},
	{"runtime.gc_cycles_per_s", "1/s", "lower"},
	{"runtime.gc_cpu_fraction", "ratio", "lower"},
	{"runtime.alloc_mb_per_op", "MB", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// outDir receives each run's record and span files, relative to the
// checkout root the benchmark runs from.
const outDir = ".bench_build/results"

// runOpts are the settings a workload runs under.
type runOpts struct {
	seconds time.Duration // pass time to measure: whole passes, at least one
	traced  bool
	inject  bool // corrupt one reference value, so the gate must fail
}

// workloadDef is one traffic mix.
type workloadDef struct {
	name string
	run  func(seed int64, o runOpts) (*report, error)
}

var workloads = []workloadDef{
	{"search-corpus", runSearchCorpus},
	{"tune-corpus", runTuneCorpus},
	{"serve-edit", runServeEdit},
}

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run() (int, error) {
	var (
		name    = flag.String("workload", "", "search-corpus, tune-corpus or serve-edit")
		seed    = flag.Int64("seed", 1, "input seed: the same seed generates the same inputs")
		seconds = flag.Float64("seconds", 15, "pass time to measure; whole passes run until it is reached")
		trace   = flag.Int("trace", 0, "0 for the timed run, 1 for the traced per-layer run")
		steady  = flag.Int("steady", 0, "run the workload this many times in each of two alternating sets and print each metric's spread")
		inject  = flag.Bool("inject-mismatch", false, "corrupt one reference value, so the correctness gate must fail")
	)
	flag.Parse()
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		return 2, fmt.Errorf("unknown --workload %q (want search-corpus, tune-corpus or serve-edit)", *name)
	case *trace != 0 && *trace != 1:
		return 2, fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	case !(*seconds > 0):
		return 2, fmt.Errorf("--seconds must be positive")
	}
	if *steady > 0 {
		return steadyCheck(w.name, *seed, *seconds, *trace, *steady)
	}
	rep, err := w.run(*seed, runOpts{
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		inject:  *inject,
	})
	if err != nil {
		return 1, err
	}
	specs := endToEnd
	if *trace == 1 {
		specs = perLayer
	}
	res := rep.print(specs, *trace)
	if !res.Correct {
		return 1, fmt.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
	}
	return 0, nil
}

// result is the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run measured and checked.
type report struct {
	workload string
	seed     int64
	gate     *gate
	answers  *answers
	values   map[string]float64
	record   map[string]any
	notes    bytes.Buffer // human-readable sections, printed before the metrics
	traced   *tracedRun
}

func newReport(workload string, seed int64, o runOpts) *report {
	g := &gate{}
	g.inject.Store(o.inject)
	return &report{
		workload: workload, seed: seed, gate: g,
		answers: &answers{gate: g, bodies: map[string][]byte{}},
		values:  map[string]float64{},
		record:  map[string]any{"workload": workload, "seed": seed, "env": environment()},
	}
}

// describe records the size of an input set: files, candidate sites and
// source bytes.
func (r *report) describe(set string, units []*unit) {
	sites, size := 0, 0
	for _, u := range units {
		sites += u.sites
		size += len(u.src)
	}
	r.record[set] = map[string]int{"files": len(units), "sites": sites, "sourceBytes": size}
	fmt.Fprintf(&r.notes, "%s seed %d, %s: %d files, %d candidate sites, %d source bytes\n",
		r.workload, r.seed, set, len(units), sites, size)
}

// print writes the human-readable report, a record line and, last, the
// JSON result, and saves the record under outDir.
func (r *report) print(specs []metricSpec, trace int) result {
	res := result{
		Correct:   r.gate.failed == 0,
		Attempted: r.answers.sent,
		Failed:    min(r.gate.failed, r.answers.sent),
		Metrics:   map[string]metricValue{},
	}
	os.Stdout.Write(r.notes.Bytes())
	fmt.Printf("\n%-32s %14s  %-6s %s\n", "metric", "value", "unit", "better")
	for _, m := range specs {
		v := r.values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Printf("%-32s %14.6g  %-6s %s\n", m.name, v, m.unit, m.better)
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	for _, f := range r.gate.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", f)
	}
	r.record["attempted"], r.record["failed"], r.record["metrics"] = res.Attempted, res.Failed, res.Metrics
	r.record["gcCyclesTotal"] = readRuntime()["/gc/cycles/total:gc-cycles"]
	if rec, err := json.Marshal(r.record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode record:", err)
	} else {
		fmt.Printf("record %s\n", rec)
		save(fmt.Sprintf("record-%s-seed%d-trace%d.json", r.workload, r.seed, trace), rec)
	}
	line, _ := json.Marshal(res) // plain numbers, strings and bools: cannot fail
	fmt.Println(string(line))
	return res
}

// save writes one output file under outDir. A failure is only reported:
// the result on stdout is what a run is judged by.
func save(name string, data []byte) {
	err := os.MkdirAll(outDir, 0o755)
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, name), data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: save", name+":", err)
	}
}

// steadyCheck runs the workload 2*runs times in child processes, each with
// its own seed, alternating between sets A and B, and prints every metric's
// median, quartiles and IQR ÷ median over all runs and per set, and how
// much worse set B's median is than set A's.
func steadyCheck(name string, seed int64, seconds float64, trace, runs int) (int, error) {
	exe, err := os.Executable()
	if err != nil {
		return 1, err
	}
	sets := [2]map[string][]float64{{}, {}}
	for i := 0; i < 2*runs; i++ {
		s := seed + int64(i)
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return 1, fmt.Errorf("run %d (seed %d): %w", i+1, s, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return 1, fmt.Errorf("run %d (seed %d): parse result: %w", i+1, s, err)
		}
		for k, m := range res.Metrics {
			sets[i%2][k] = append(sets[i%2][k], m.Value)
		}
		fmt.Printf("run %2d  set %c  seed %d  correct %v\n", i+1, 'A'+i%2, s, res.Correct)
	}
	specs := endToEnd
	if trace == 1 {
		specs = perLayer
	}
	fmt.Printf("\n%-32s %12s %12s %12s %9s %9s %9s %9s\n",
		"metric", "median", "q1", "q3", "iqr/med", "A iqr/med", "B iqr/med", "B worse")
	spread := func(v []float64) float64 {
		q1, q2, q3 := quartiles(v)
		return ratio(q3-q1, math.Abs(q2))
	}
	for _, m := range specs {
		a, b := sets[0][m.name], sets[1][m.name]
		all := append(append([]float64(nil), a...), b...)
		q1, q2, q3 := quartiles(all)
		_, ma, _ := quartiles(a)
		_, mb, _ := quartiles(b)
		worse := ratio(mb-ma, ma)
		if m.better == "higher" {
			worse = ratio(ma-mb, ma)
		}
		fmt.Printf("%-32s %12.6g %12.6g %12.6g %8.2f%% %8.2f%% %8.2f%% %8.2f%%\n", m.name, q2, q1, q3,
			100*spread(all), 100*spread(a), 100*spread(b), 100*worse)
	}
	return 0, nil
}
