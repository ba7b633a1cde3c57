package autotune

import (
	"optinline/internal/callgraph"
	"optinline/internal/compile"
)

// Session is the one tuning engine: a session stepped one round at a time.
// Every tuner in this package is a run of a Session (run), which steps it
// to a fixpoint or the round budget and keeps the best round; the
// cross-module sharded tuner (internal/link) instead steps one Session per
// call-graph component in lockstep global rounds, so the merged per-round
// traces reproduce a whole-module Tune exactly.
//
// What varies between tuners is how probes are priced (a pricer: size
// deltas, size and cycle deltas, or a memoized objective), the scalar the
// session minimizes (cost), and which probes a round asks for (the §5.2.1
// group toggles and the §6 incremental active set).
type Session struct {
	p       pricer
	cost    func(price) float64
	g       *callgraph.Graph
	sites   []int // every candidate site, ascending
	workers int

	// groups lists, per internal callee with several call sites, every
	// site calling it (empty unless ExtOptions.GroupCallees).
	groups      [][]int
	incremental bool
	active      []int // sites the next round toggles one at a time

	cfg   *callgraph.Config // current labels; replaced, never mutated
	at    price             // cfg's price
	round int
	done  bool // a round kept no toggles; further rounds are no-ops
}

// price is what a pricer measures for one configuration: compiled bytes
// and, for cycle-aware sessions, modelled cycles. A memoized objective
// reports its value as size.
type price struct {
	size   int
	cycles int64
}

// pricer prices configurations relative to a base it holds.
type pricer interface {
	// start prices the session's initial labels and makes them the base.
	start(cfg *callgraph.Config) price
	// probe prices base⊕t for every toggle set t (each listed site's label
	// flipped relative to the base), in order.
	probe(toggles [][]int, workers int) []price
	// rebase advances the base by toggles and returns its price.
	rebase(toggles []int) price
	// evaluations is the counter a Result reports.
	evaluations() int64
}

// sizeCost is the size objective. Costs are float64 so that one keep rule
// serves every objective; sizes and int64 objective values below 2^53
// convert exactly, so comparisons agree with integer ones.
func sizeCost(p price) float64 { return float64(p.size) }

// NewSession prices init (nil means clean slate) and returns a size
// session positioned before round 1.
func NewSession(c *compile.Compiler, init *callgraph.Config, workers int) *Session {
	return newCompilerSession(c, nil, sizeCost, init, ExtOptions{Options: Options{Workers: workers}})
}

// newCompilerSession starts a session priced by c's delta engine and, when
// cp is non-nil, cp's cycle deltas.
func newCompilerSession(c *compile.Compiler, cp *compile.CyclePricer, cost func(price) float64, init *callgraph.Config, opts ExtOptions) *Session {
	var groups [][]int
	if opts.GroupCallees {
		groups = calleeGroups(c)
	}
	return newSession(c.Graph(), &deltaPricer{c: c, cp: cp}, cost, init, opts, groups)
}

func newSession(g *callgraph.Graph, p pricer, cost func(price) float64, init *callgraph.Config, opts ExtOptions, groups [][]int) *Session {
	cfg := callgraph.NewConfig()
	if init != nil {
		cfg = init.Clone()
	}
	sites := g.Sites()
	return &Session{
		p: p, cost: cost, g: g, sites: sites, workers: opts.Workers,
		groups: groups, incremental: opts.Incremental, active: sites,
		cfg: cfg, at: p.start(cfg),
	}
}

// run steps the session until a round keeps no toggles or rounds (0 means
// 1) have run, and reports the best and the final round.
func (s *Session) run(rounds int) Result {
	if rounds <= 0 {
		rounds = 1
	}
	res := Result{
		Config: s.cfg.Clone(), Size: s.at.size, Cycles: s.at.cycles,
		InitSize: s.at.size, InitCycles: s.at.cycles,
	}
	best := s.cost(s.at)
	for r := 0; r < rounds && !s.done; r++ {
		res.Rounds = append(res.Rounds, s.Step())
		if c := s.cost(s.at); c < best {
			res.Config, res.Size, res.Cycles, best = s.cfg.Clone(), s.at.size, s.at.cycles, c
		}
	}
	res.Final, res.FinalSize, res.FinalCycles = s.cfg, s.at.size, s.at.cycles
	res.Evaluations = s.p.evaluations()
	return res
}

// Step runs one tuning round and returns its trace. Once a round keeps no
// toggles the session is converged: the configuration is a fixpoint of the
// round operator (each probe depends only on the unchanged base), so Step
// becomes a free no-op that replays the converged state — callers in a
// lockstep loop may keep calling it or skip the session, identically.
func (s *Session) Step() RoundTrace {
	s.round++
	toggles := 0
	if !s.done {
		next, toggled := s.next()
		// toggled can revisit a site (a single-edge toggle later overridden
		// by a winning group), so rebase on the configuration diff.
		s.at = s.p.rebase(s.cfg.DiffSites(next))
		s.cfg = next
		toggles = len(toggled)
		if toggles == 0 {
			s.done = true // fixpoint
		} else if s.incremental {
			s.active = neighbourhood(s.g, toggled)
		}
	}
	n := s.cfg.InlineCount()
	return RoundTrace{
		Round:      s.round,
		Size:       s.at.size,
		Cycles:     s.at.cycles,
		Inlined:    n,
		NotInlined: len(s.sites) - n,
		Toggles:    toggles,
	}
}

// next is Algorithm 3 generalized to an arbitrary starting point: every
// active site is toggled alone, and every group whose callee is not yet
// inlined at all its sites is probed as one toggle set, all against the
// same base. Matching Algorithm 3's tie handling, a toggle *to* inline is
// kept on ties, while a toggle away from inline must strictly lower the
// cost; a group must strictly lower it too. Winning groups apply after the
// single toggles (groups are additions, and disjoint: a site has one
// callee). It returns the next labels and the toggled sites.
func (s *Session) next() (*callgraph.Config, []int) {
	probes := make([][]int, len(s.active), len(s.active)+len(s.groups))
	for i, site := range s.active {
		probes[i] = []int{site}
	}
	var groups [][]int
	if len(s.groups) > 0 {
		active := make(map[int]bool, len(s.active))
		for _, site := range s.active {
			active[site] = true
		}
		for _, grp := range s.groups {
			var missing []int // group sites the base does not inline yet
			touchesActive := false
			for _, site := range grp {
				if !s.cfg.Inline(site) {
					missing = append(missing, site)
				}
				touchesActive = touchesActive || active[site]
			}
			if len(missing) > 0 && touchesActive {
				groups = append(groups, grp)
				probes = append(probes, missing)
			}
		}
	}
	prices := s.p.probe(probes, s.workers)

	base := s.cost(s.at)
	next := s.cfg.Clone()
	var toggled []int
	for i, site := range s.active {
		toInline := !s.cfg.Inline(site)
		if c := s.cost(prices[i]); c < base || toInline && c == base {
			next.Set(site, toInline)
			toggled = append(toggled, site)
		}
	}
	for gi, grp := range groups {
		if s.cost(prices[len(s.active)+gi]) < base {
			for _, site := range grp {
				if !next.Inline(site) {
					next.Set(site, true)
					toggled = append(toggled, site)
				}
			}
		}
	}
	return next, toggled
}

// Converged reports whether a past round kept no toggles.
func (s *Session) Converged() bool { return s.done }

// Config returns the current round's configuration (shared; clone before
// mutating).
func (s *Session) Config() *callgraph.Config { return s.cfg }

// Size returns the current round's size.
func (s *Session) Size() int { return s.at.size }

// deltaPricer prices probes on the compiler's delta engine and, when cp is
// set, on the cycle pricer's: a probe recompiles only the toggled sites'
// dirty closures and replays only their events.
type deltaPricer struct {
	c      *compile.Compiler
	sized  *compile.Sized
	cp     *compile.CyclePricer // nil prices bytes only
	cycled *compile.Cycled
}

func (d *deltaPricer) start(cfg *callgraph.Config) price {
	d.sized = d.c.Sized(cfg)
	p := price{size: d.sized.Size()}
	if d.cp != nil {
		d.cycled = d.cp.Priced(cfg)
		p.cycles = d.cycled.Cycles()
	}
	return p
}

func (d *deltaPricer) probe(toggles [][]int, workers int) []price {
	out := make([]price, len(toggles))
	for i, size := range d.c.SizeDeltaParallel(d.sized, toggles, workers) {
		out[i].size = size
	}
	if d.cp != nil {
		for i, cycles := range d.cp.CyclesDeltaParallel(d.cycled, toggles, workers) {
			out[i].cycles = cycles
		}
	}
	return out
}

func (d *deltaPricer) rebase(toggles []int) price {
	d.sized = d.c.Rebase(d.sized, toggles)
	p := price{size: d.sized.Size()}
	if d.cp != nil {
		d.cycled = d.cp.Rebase(d.cycled, toggles)
		p.cycles = d.cycled.Cycles()
	}
	return p
}

func (d *deltaPricer) evaluations() int64 { return d.c.Evaluations() }
