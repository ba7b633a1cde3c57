package autotune

import (
	"runtime"
	"sync"
	"sync/atomic"

	"optinline/internal/callgraph"
)

// Objective maps an inlining configuration to a cost to minimize. The
// size autotuner is the special case Objective = compiled .text bytes; the
// paper's Section 6 sketches tuning for runtime as the natural next target,
// which this generalization enables (e.g. interpreter cycles under the
// i-cache model, or any size/speed blend).
type Objective func(cfg *callgraph.Config) int64

// TuneObjective runs the local autotuner against an arbitrary objective.
// Results are memoized per canonical configuration, and each round's
// toggles evaluate in parallel, exactly like the size tuner. The result
// reports costs as sizes; Evaluations counts distinct objective calls.
func TuneObjective(g *callgraph.Graph, obj Objective, init *callgraph.Config, opts Options) Result {
	m := &memoPricer{obj: obj, memo: make(map[string]int64)}
	return newSession(g, m, sizeCost, init, ExtOptions{Options: opts}, nil).run(opts.Rounds)
}

// memoPricer prices configurations by calling an objective on each
// distinct one.
type memoPricer struct {
	obj   Objective
	base  *callgraph.Config
	mu    sync.Mutex
	memo  map[string]int64
	evals atomic.Int64
}

func (m *memoPricer) eval(cfg *callgraph.Config) price {
	key := cfg.Key()
	m.mu.Lock()
	v, ok := m.memo[key]
	m.mu.Unlock()
	if !ok {
		m.evals.Add(1)
		v = m.obj(cfg)
		m.mu.Lock()
		m.memo[key] = v
		m.mu.Unlock()
	}
	return price{size: int(v)}
}

// toggled returns the base with every listed site's label flipped.
func (m *memoPricer) toggled(toggles []int) *callgraph.Config {
	cfg := m.base.Clone()
	for _, s := range toggles {
		cfg.Set(s, !m.base.Inline(s))
	}
	return cfg
}

func (m *memoPricer) start(cfg *callgraph.Config) price {
	m.base = cfg.Clone()
	return m.eval(m.base)
}

func (m *memoPricer) probe(toggles [][]int, workers int) []price {
	out := make([]price, len(toggles))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(toggles) {
		workers = len(toggles)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(toggles); i = int(next.Add(1)) - 1 {
				out[i] = m.eval(m.toggled(toggles[i]))
			}
		}()
	}
	wg.Wait()
	return out
}

func (m *memoPricer) rebase(toggles []int) price {
	m.base = m.toggled(toggles)
	return m.eval(m.base)
}

func (m *memoPricer) evaluations() int64 { return m.evals.Load() }
