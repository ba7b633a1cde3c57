// Package inline implements the function-inlining transformation on the IR
// and the application of whole inlining configurations.
//
// Inlining one call splices a clone of the callee's CFG into the caller:
// the call block branches into the cloned entry (passing the call
// arguments as block arguments), every cloned return branches to a fresh
// continuation block whose parameter replaces the call result.
//
// Cloned call instructions keep their original site IDs, so one
// configuration label covers every copy of a call ("coupled copies" in the
// paper). Recursion is bounded by the Trail mechanism: a call is never
// expanded if its own site already appears on its trail, which implements
// "inline recursive functions at most once".
package inline

import (
	"fmt"
	"slices"
	"strconv"

	"optinline/internal/callgraph"
	"optinline/internal/ir"
)

// DefaultMaxInstrs bounds module growth during configuration application.
// It is a safety valve against pathological exponential expansion; the
// experiments never approach it.
const DefaultMaxInstrs = 4_000_000

// Call inlines a single call instruction within f. The call must be an
// instruction of f and callee must be the called function. It returns the
// blocks it inserted into f, in order: the callee's cloned blocks, then the
// continuation. It returns an error if the call cannot be located in f.
func Call(f *ir.Function, call *ir.Instr, callee *ir.Function) ([]*ir.Block, error) {
	return expand(f, call, callee, newNamePool(f), nil)
}

// expand is Call drawing block names from names, which must hold every
// block name of f, and carving the callee's copy from arena.
func expand(f *ir.Function, call *ir.Instr, callee *ir.Function, names *namePool, arena *ir.Arena) ([]*ir.Block, error) {
	blockIdx, instrIdx := -1, -1
	for bi, b := range f.Blocks {
		for ii, in := range b.Instrs {
			if in == call {
				blockIdx, instrIdx = bi, ii
				break
			}
		}
		if blockIdx >= 0 {
			break
		}
	}
	if blockIdx < 0 {
		return nil, fmt.Errorf("inline: call to %s not found in %s", call.Callee, f.Name)
	}
	if len(call.Args) != callee.NumParams() {
		return nil, fmt.Errorf("inline: call to %s has %d args, want %d",
			call.Callee, len(call.Args), callee.NumParams())
	}
	host := f.Blocks[blockIdx]

	body := callee.CloneIn(arena)
	// Extend the trail of every cloned call: it was materialized by
	// expanding this site.
	for _, b := range body.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				trail := arena.Ints(len(call.Trail) + len(in.Trail) + 1)
				n := copy(trail, call.Trail)
				trail[n] = call.Site
				copy(trail[n+1:], in.Trail)
				in.Trail = trail
			}
		}
	}

	// Continuation block: receives the return value as its parameter and
	// takes over the instructions after the call (including the original
	// terminator).
	cont := &ir.Block{Name: names.unique(host.Name + ".cont")}
	retParam := f.NewValue("")
	retParam.Parm = cont
	cont.Params = []*ir.Value{retParam}
	cont.Instrs = append(cont.Instrs, host.Instrs[instrIdx+1:]...)

	// The host block now ends by branching into the cloned entry with the
	// call arguments.
	host.Instrs = host.Instrs[:instrIdx]
	host.Instrs = append(host.Instrs, &ir.Instr{
		Op:    ir.OpBr,
		Succs: []ir.Succ{{Dest: body.Entry(), Args: append([]*ir.Value(nil), call.Args...)}},
	})

	// Rewrite cloned returns into branches to the continuation.
	for _, b := range body.Blocks {
		t := b.Term()
		if t != nil && t.Op == ir.OpRet {
			rv := t.Args[0]
			t.Op = ir.OpBr
			t.Args = nil
			t.Succs = []ir.Succ{{Dest: cont, Args: []*ir.Value{rv}}}
		}
	}

	// Splice: cloned blocks (renamed for readability) then the continuation.
	insert := make([]*ir.Block, 0, len(body.Blocks)+1)
	for _, b := range body.Blocks {
		b.Name = names.unique(callee.Name + "." + b.Name)
		insert = append(insert, b)
	}
	insert = append(insert, cont)
	f.Blocks = slices.Insert(f.Blocks, blockIdx+1, insert...)

	// The call result is now the continuation parameter.
	replaceUses(f, call.Result, retParam)
	return insert, nil
}

// Options configures Apply.
type Options struct {
	// MaxInstrs bounds the total module instruction count during expansion;
	// 0 selects DefaultMaxInstrs.
	MaxInstrs int

	// Check, when non-nil, is invoked after every individual inline
	// expansion with a description of the step ("site N: caller <- callee").
	// A non-nil return aborts Apply with a *StepError naming that step —
	// checked compilation mode uses this to attribute the first invariant
	// violation to the exact expansion that introduced it.
	Check func(step string) error

	// Arena, when non-nil, is where every callee copy Apply splices in is
	// carved from; the module is then only valid until its Release.
	Arena *ir.Arena
}

// StepError attributes an invariant violation to the inline expansion that
// introduced it.
type StepError struct {
	Step string // "site N: caller <- callee"
	Err  error
}

func (e *StepError) Error() string {
	return fmt.Sprintf("inline step %q broke an invariant: %v", e.Step, e.Err)
}

func (e *StepError) Unwrap() error { return e.Err }

// Apply expands every call site labeled inline in cfg, including labeled
// calls that only materialize as clones during expansion. The module is
// mutated; callers that need the original should pass m.Clone().
func Apply(m *ir.Module, cfg *callgraph.Config, opts Options) error {
	maxInstrs := opts.MaxInstrs
	if maxInstrs == 0 {
		maxInstrs = DefaultMaxInstrs
	}

	type work struct {
		fn   *ir.Function
		call *ir.Instr
	}
	var queue []work
	seen := make(map[*ir.Instr]bool) // guards against re-queuing a call that
	// moved into a freshly created continuation block
	push := func(fn *ir.Function, in *ir.Instr) {
		if in.Op != ir.OpCall || !cfg.Inline(in.Site) || seen[in] {
			return
		}
		if m.Func(in.Callee) == nil {
			return
		}
		for _, s := range in.Trail {
			if s == in.Site {
				return // recursion bound: this site was already expanded
			}
		}
		seen[in] = true
		queue = append(queue, work{fn, in})
	}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				push(f, in)
			}
		}
	}

	total := m.NumInstrs()
	// One block-name pool per expanded function for the whole Apply:
	// expansions only add blocks, so a pool seeded with the function's
	// names and fed every name it issues always holds exactly the
	// function's current block names.
	pools := make(map[*ir.Function]*namePool)
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		callee := m.Func(w.call.Callee)
		if callee == nil {
			continue
		}
		if pools[callee] != nil {
			// Expanding into callee left its numbers stale; renumbered, it
			// is cloned by number instead of through maps. Apply owns
			// every function it expands into, so it may write the numbers.
			callee.Number()
		}
		if total+callee.NumInstrs() > maxInstrs {
			return fmt.Errorf("inline: module exceeds %d instructions while applying %s", maxInstrs, cfg)
		}
		// Locate and inline; the call may have moved blocks but its
		// instruction identity is stable. Cloned calls sit in the blocks
		// the expansion inserted.
		names := pools[w.fn]
		if names == nil {
			names = newNamePool(w.fn)
			pools[w.fn] = names
		}
		inserted, err := expand(w.fn, w.call, callee, names, opts.Arena)
		if err != nil {
			return err
		}
		if opts.Check != nil {
			step := fmt.Sprintf("site %d: %s <- %s", w.call.Site, w.fn.Name, callee.Name)
			if err := opts.Check(step); err != nil {
				return &StepError{Step: step, Err: err}
			}
		}
		total += callee.NumInstrs()
		for _, b := range inserted {
			for _, in := range b.Instrs {
				push(w.fn, in)
			}
		}
	}
	return nil
}

// namePool hands out block names that are unique against both the
// function's existing blocks and every name the pool already issued.
type namePool struct {
	taken map[string]bool
}

func newNamePool(f *ir.Function) *namePool {
	taken := make(map[string]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		taken[b.Name] = true
	}
	return &namePool{taken: taken}
}

func (np *namePool) unique(name string) string {
	cand := name
	for i := 2; np.taken[cand]; i++ {
		cand = name + strconv.Itoa(i)
	}
	np.taken[cand] = true
	return cand
}

func replaceUses(f *ir.Function, old, repl *ir.Value) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				if a == old {
					in.Args[i] = repl
				}
			}
			for si := range in.Succs {
				for i, a := range in.Succs[si].Args {
					if a == old {
						in.Succs[si].Args[i] = repl
					}
				}
			}
		}
	}
}
