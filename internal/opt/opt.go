// Package opt implements the intra-procedural optimization pipeline that
// runs after inlining. These passes are what make inlining decisions
// interact: inlining a call with constant arguments lets constant
// propagation fold branches, which removes blocks, which kills code — so
// the size effect of one inlining decision depends on others, exactly the
// phenomenon the paper studies.
//
// All passes are function-local. The only whole-module transformation is
// dead-function elimination (RemoveDeadFunctions), which is driven by an
// explicit removability predicate supplied by the compile driver; keeping it
// label-based is what makes the paper's search-space partition exact in this
// substrate (see DESIGN.md).
package opt

import (
	"fmt"

	"optinline/internal/ir"
)

// MaxIterations bounds the per-function fixpoint loop; the pipeline
// normally converges in a handful of iterations.
const MaxIterations = 50

// Stats reports what the pipeline did; used by tests and diagnostics.
type Stats struct {
	Iterations     int
	InstrsRemoved  int
	BlocksRemoved  int
	BranchesFolded int
	ConstsFolded   int
	ParamsPropped  int
}

// pipeline is the fixed pass order, named so checked compilation mode can
// attribute an invariant violation to the exact pass that introduced it.
var pipeline = []struct {
	name string
	run  func(*state) bool
}{
	{"propagate-params", propagateParams},
	{"fold-constants", foldConstants},
	{"cse-blocks", cseBlocks},
	{"fold-branches", foldBranches},
	{"remove-unreachable", removeUnreachable},
	{"merge-blocks", mergeBlocks},
	{"remove-dead-instrs", removeDeadInstrs},
}

// PassNames returns the pipeline's pass names in execution order.
func PassNames() []string {
	names := make([]string, len(pipeline))
	for i, p := range pipeline {
		names[i] = p.name
	}
	return names
}

// CheckFunc is invoked by the checked pipeline after every pass invocation
// that reported a change, with the pass name and the function it mutated.
// Returning a non-nil error aborts the pipeline; the error is wrapped in a
// *PassError naming the offending pass.
type CheckFunc func(pass string, f *ir.Function) error

// PassError attributes an invariant violation to the first optimization
// pass that introduced it.
type PassError struct {
	Pass      string // pass name, from PassNames
	Func      string // function being optimized
	Iteration int    // fixpoint iteration (1-based)
	Err       error
}

func (e *PassError) Error() string {
	return fmt.Sprintf("opt pass %q broke an invariant on func %s (iteration %d): %v",
		e.Pass, e.Func, e.Iteration, e.Err)
}

func (e *PassError) Unwrap() error { return e.Err }

// Function optimizes a single function to a fixpoint and returns statistics.
func Function(f *ir.Function) Stats {
	st, _ := FunctionChecked(f, nil)
	return st
}

// FunctionChecked is Function with a per-pass invariant check: after every
// pass invocation that changed the function, check is called with the pass
// name (the -verify-each analogue). A check failure stops the pipeline
// immediately — the function is left in its broken state for inspection —
// and is returned as a *PassError. A nil check makes this identical to
// Function.
func FunctionChecked(f *ir.Function, check CheckFunc) (Stats, error) {
	var st Stats
	s := newState(f, &st)
	for st.Iterations = 1; st.Iterations <= MaxIterations; st.Iterations++ {
		changed := false
		for _, p := range pipeline {
			if !p.run(s) {
				continue
			}
			changed = true
			if check != nil {
				if err := check(p.name, f); err != nil {
					return st, &PassError{Pass: p.name, Func: f.Name, Iteration: st.Iterations, Err: err}
				}
			}
		}
		if !changed {
			break
		}
	}
	return st, nil
}

// Module optimizes every function in the module.
func Module(m *ir.Module) Stats {
	st, _ := ModuleChecked(m, nil)
	return st
}

// ModuleChecked optimizes every function with a per-pass invariant check
// (see FunctionChecked), stopping at the first violation.
func ModuleChecked(m *ir.Module, check CheckFunc) (Stats, error) {
	var total Stats
	for _, f := range m.Funcs {
		st, err := FunctionChecked(f, check)
		total.InstrsRemoved += st.InstrsRemoved
		total.BlocksRemoved += st.BlocksRemoved
		total.BranchesFolded += st.BranchesFolded
		total.ConstsFolded += st.ConstsFolded
		total.ParamsPropped += st.ParamsPropped
		if st.Iterations > total.Iterations {
			total.Iterations = st.Iterations
		}
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// RemoveDeadFunctions removes every non-exported function for which
// removable reports true. It returns the number of functions removed.
//
// The caller decides removability. The compile driver passes the paper's
// label-based rule: an internal function is removable iff every original
// call edge targeting it is labeled "inline".
func RemoveDeadFunctions(m *ir.Module, removable func(name string) bool) int {
	n := 0
	for _, f := range append([]*ir.Function(nil), m.Funcs...) {
		if f.Exported {
			continue
		}
		if removable(f.Name) {
			m.RemoveFunc(f.Name)
			n++
		}
	}
	return n
}

// state is one pipeline run's scratch over the function it optimizes. The
// run owns f, so it numbers f's blocks and values once (ir.Function.Number)
// and keeps every per-block and per-value table in a slice indexed by those
// numbers. The passes only delete blocks and values, never add them, so
// the numbers stay distinct for the whole run and the slices are sized
// once.
//
// A pass that replaces a value records it with substitute instead of
// rewriting uses on the spot; reads during the pass go through resolve,
// and flush rewrites every use in one walk when the pass ends. Each pass
// therefore leaves f exactly as if it had rewritten uses immediately, and
// checked mode's per-pass hook sees the finished pass.
type state struct {
	f  *ir.Function
	st *Stats

	nblocks int

	subst   []*ir.Value // by value number; nil when not replaced
	pending bool        // subst holds entries not yet flushed

	// Per-block and per-value scratch, cleared by the pass that uses it.
	blockCount []int32
	blockEdge  []inEdge
	blockPred  []*ir.Block
	reach      []bool
	blockStack []*ir.Block
	uses       []int32
	dead       []*ir.Instr

	cse cseScratch
}

func newState(f *ir.Function, st *Stats) *state {
	nb, nv := f.Number()
	return &state{
		f: f, st: st, nblocks: nb,
		subst:      make([]*ir.Value, nv),
		blockCount: make([]int32, nb),
		blockEdge:  make([]inEdge, nb),
		blockPred:  make([]*ir.Block, nb),
		reach:      make([]bool, nb),
		uses:       make([]int32, nv),
	}
}

// resolve returns the value v stands for under the pass's pending
// substitution, following chains (a value replaced by a value that was
// replaced in turn).
func (s *state) resolve(v *ir.Value) *ir.Value {
	for {
		r := s.subst[v.Num()]
		if r == nil {
			return v
		}
		v = r
	}
}

// substitute records that every use of old becomes a use of repl. old must
// not have been substituted already in this pass; repl is resolved first,
// so no chain ever loops back (replacing a value by itself records
// nothing).
func (s *state) substitute(old, repl *ir.Value) {
	if repl = s.resolve(repl); repl != old {
		s.subst[old.Num()] = repl
		s.pending = true
	}
}

// flush rewrites every use in the function through the pending
// substitution, in one walk, and clears it.
func (s *state) flush() {
	if !s.pending {
		return
	}
	for _, b := range s.f.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				in.Args[i] = s.resolve(a)
			}
			for _, sc := range in.Succs {
				for i, a := range sc.Args {
					sc.Args[i] = s.resolve(a)
				}
			}
		}
	}
	clear(s.subst)
	s.pending = false
}
