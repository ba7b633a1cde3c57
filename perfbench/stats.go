package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"optinline/internal/server"
)

// counts is a set of named counters that phases add up and subtract.
type counts map[string]float64

func (a counts) add(b counts) counts {
	out := counts{}
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] += v
	}
	return out
}

func (a counts) sub(b counts) counts {
	out := counts{}
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

// countersOf extracts the /stats counters the per-layer metrics use.
func countersOf(st server.StatsResponse) counts {
	return counts{
		"evaluations":      float64(st.Evaluations),
		"fn.hits":          float64(st.FnCache.Hits),
		"fn.misses":        float64(st.FnCache.Misses),
		"config.hits":      float64(st.ConfigCache.Hits),
		"config.misses":    float64(st.ConfigCache.Misses),
		"delta.evals":      float64(st.Delta.Evals),
		"delta.dirty":      float64(st.Delta.DirtyFuncs),
		"prune.subtrees":   float64(st.Prune.Subtrees),
		"prune.memoHits":   float64(st.Prune.MemoHits),
		"prune.memoMisses": float64(st.Prune.MemoMisses),
		"queue.granted":    float64(st.Queue.Granted),
		"queue.waited":     float64(st.Queue.Waited),
		"pool.hits":        float64(st.Compilers.Hits),
		"pool.built":       float64(st.Compilers.Built),
		"cycle.replay":     float64(st.CyclePricers.ReplayEvents),
		"cycle.costHits":   float64(st.CyclePricers.CostCacheHits),
		"cycle.costMisses": float64(st.CyclePricers.CostCacheMisses),
		"link.patches":     float64(st.LinkSessions.Patches),
		"link.planReuses":  float64(st.LinkSessions.PlanReuses),
		"relink.hits":      float64(st.RelinkCache.Hits),
		"relink.misses":    float64(st.RelinkCache.Misses),
	}
}

// runtimeNames are the runtime/metrics the per-layer GC metrics read.
var runtimeNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() counts {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	out := counts{}
	for _, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[x.Name] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[x.Name] = x.Value.Float64()
		}
	}
	return out
}

// environment is recorded with every result, so a noisy set can be
// diagnosed.
func environment() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os":         runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        procField("/proc/cpuinfo", "model name"),
	}
}

// procField returns the value of the first "key: value" line of a procfs
// file, "" when absent.
func procField(path, key string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	kb, _ := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	return kb / 1024
}

// quartiles returns Python's statistics.quantiles(values, n=4), the
// exclusive method: the spread rule the benchmark is held to.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// medianDur is the median of ds, 0 when empty.
func medianDur(ds []time.Duration) time.Duration {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d)
	}
	_, m, _ := quartiles(v)
	return time.Duration(m)
}

// tail returns the p99 of sorted latencies or, with fewer than 1000 of
// them, the highest percentile that still has 10 samples beyond it — and
// which percentile that is.
func tail(sorted []time.Duration) (time.Duration, float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if n >= 1000 {
		return sorted[int(math.Ceil(0.99*float64(n)))-1], 99
	}
	i := max(n-11, 0)
	return sorted[i], 100 * float64(i+1) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// parallel runs f(0..n-1) on GOMAXPROCS workers and returns when all are
// done.
func parallel(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
