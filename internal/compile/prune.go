package compile

// This file exposes the contribution-handle bookkeeping the branch-and-bound
// search (internal/search) prices its admissible bounds with. The handles
// are ordinary Sized values, but they are built and advanced entirely
// outside the whole-configuration cache and the evaluation counters:
// pruning is bookkeeping about configurations the search may *never*
// evaluate, so charging them would make the Evaluations counter depend on
// how much pruning happened rather than on how many configurations were
// compiled.
//
// Handles come from DeltaBase, so pruning is off exactly when the delta
// engine is: in checked mode, which forces whole-module pipelines (pruning
// would skip exactly the work being checked).

// RebaseContrib prices base⊕toggles like Rebase but entirely outside the
// whole-configuration cache and the evaluation/delta counters: only the
// dirty functions' contributions are recomputed (their closure compiles
// still land in — and are served from — the per-function memo, so the work
// is shared with any later real evaluation of the same region). Returns nil
// when the base carries no contributions; returns a contribution-free
// handle when the toggled configuration fails to compile.
func (c *Compiler) RebaseContrib(base *Sized, toggles []int) *Sized {
	if !base.HasContrib() {
		return nil
	}
	cfg := c.toggled(base, toggles)
	contrib := make([]int, len(base.contrib))
	copy(contrib, base.contrib)
	dirty := c.memo.dirty(toggles)
	total := c.applyDirty(base, cfg, dirty, contrib)
	if total == InfSize {
		return &Sized{cfg: cfg, total: InfSize, full: true}
	}
	return &Sized{cfg: cfg, total: total, contrib: contrib}
}

// HasContrib reports whether the handle carries per-function contributions
// (false for nil and checked-mode handles and for configurations that
// failed to compile — InfSize totals never carry contributions).
func (s *Sized) HasContrib() bool { return s != nil && !s.full }

// ContribSum returns the sum of the handle's per-function contributions
// over the given memo-order function indices (DFE-dead functions contribute
// zero). The search uses it as the bound mass: within a subtree whose
// remaining free labels span exactly these functions, the total size can
// drop below the handle's by at most this sum, because every per-function
// contribution is non-negative.
func (s *Sized) ContribSum(idxs []int) int {
	if !s.HasContrib() {
		return 0
	}
	total := 0
	for _, i := range idxs {
		total += s.contrib[i]
	}
	return total
}
