package autotune

import (
	"sync"
	"sync/atomic"

	"optinline/internal/callgraph"
)

// Objective maps an inlining configuration to a cost to minimize. The
// size autotuner is the special case Objective = compiled .text bytes; the
// paper's Section 6 sketches tuning for runtime as the natural next target,
// which this generalization enables (e.g. interpreter cycles under the
// i-cache model, or any size/speed blend). A probe's configuration is the
// tuner's scratch memory: the objective must not keep it.
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

func (m *memoPricer) start(cfg *callgraph.Config) price {
	m.base = cfg
	return m.eval(cfg)
}

func (m *memoPricer) probe(mem *probeMemory, toggles []int) price {
	return m.eval(mem.flip(m.base, toggles))
}

func (m *memoPricer) rebase(next *callgraph.Config, _ []int) price {
	m.base = next
	return m.eval(next)
}

func (m *memoPricer) evaluations() int64 { return m.evals.Load() }
