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
	"sync"

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
//
// The call is consumed: its result value becomes the continuation's
// parameter, renumbered and renamed as f.NewValue("") would number a fresh
// value, so every use of the result now reads what the callee returned.
// Its argument list moves to the branch into the callee's copy. A call
// without a result gets a fresh parameter.
func Call(f *ir.Function, call *ir.Instr, callee *ir.Function) ([]*ir.Block, error) {
	at, err := locate(f, call, callee)
	if err != nil {
		return nil, err
	}
	return slices.Clone(expand(f, at, call, callee, newNamePool(f), nil)), nil
}

// locate returns the index of the block of f holding call, checking that
// callee can take the call's arguments.
func locate(f *ir.Function, call *ir.Instr, callee *ir.Function) (int, error) {
	at := slices.IndexFunc(f.Blocks, func(b *ir.Block) bool { return slices.Contains(b.Instrs, call) })
	if at < 0 {
		return 0, fmt.Errorf("inline: call to %s not found in %s", call.Callee, f.Name)
	}
	if len(call.Args) != callee.NumParams() {
		return 0, fmt.Errorf("inline: call to %s has %d args, want %d",
			call.Callee, len(call.Args), callee.NumParams())
	}
	return at, nil
}

// expand is Call on the block at index at of f, which holds call. It draws
// block names from names, which must hold every block name of f, or
// leaves the blocks it inserts unnamed when names is nil. It carves
// everything it adds to f from arena, and returns the inserted blocks as
// a sub-slice of f.Blocks, valid until f next changes.
func expand(f *ir.Function, at int, call *ir.Instr, callee *ir.Function, names *namePool, arena *ir.Arena) []*ir.Block {
	host := f.Blocks[at]
	split := slices.Index(host.Instrs, call)

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

	// Continuation block: its parameter is the call's result, which now
	// receives the return value, and it takes over the instructions after
	// the call (including the original terminator).
	cont := arena.NewBlock()
	if names != nil {
		cont.Name = names.unique(host.Name + ".cont")
	}
	retParam := call.Result
	if retParam == nil {
		retParam = f.NewValue("")
	} else {
		f.ReuseValue(retParam)
	}
	retParam.Parm = cont
	cont.Params = arena.Operands(1)
	cont.Params[0] = retParam
	cont.Instrs = arena.AppendInstrs(nil, host.Instrs[split+1:]...)

	// The host block now ends by branching into the cloned entry with the
	// call arguments; the branch takes the call's slot.
	br := arena.NewInstr()
	br.Op = ir.OpBr
	br.Succs = arena.Succs(1)
	br.Succs[0] = ir.Succ{Dest: body.Entry(), Args: call.Args}
	host.Instrs = append(host.Instrs[:split], br)
	call.Args, call.Result = nil, nil

	// Rewrite cloned returns into branches to the continuation, passing
	// the returned value in the return's own operand list.
	for _, b := range body.Blocks {
		t := b.Term()
		if t != nil && t.Op == ir.OpRet {
			t.Op = ir.OpBr
			t.Succs = arena.Succs(1)
			t.Succs[0] = ir.Succ{Dest: cont, Args: t.Args}
			t.Args = nil
		}
	}

	// Splice: cloned blocks (renamed for readability) then the continuation.
	for _, b := range body.Blocks {
		if names != nil {
			b.Name = names.unique(callee.Name + "." + b.Name)
		} else {
			b.Name = ""
		}
	}
	f.Blocks = arena.OpenBlocks(f.Blocks, at+1, len(body.Blocks)+1)
	inserted := f.Blocks[at+1 : at+2+len(body.Blocks)]
	inserted[copy(inserted, body.Blocks)] = cont
	return inserted
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
	// carved from, together with the continuation blocks, branches and
	// lists it adds; the module is then only valid until its Release. The
	// blocks Apply inserts are then left unnamed, so the module is for
	// measuring: it prints ambiguously and fails Verify.
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
	sc := scratchPool.Get().(*scratch)
	defer sc.release()

	// Each instruction is offered to push once, when it first appears in a
	// function: in the module scan below, or in a callee copy an expansion
	// inserts. A continuation only takes over instructions its host
	// already held, so it is never scanned, and no call is queued twice.
	push := func(fn *ir.Function, in *ir.Instr) {
		if in.Op != ir.OpCall || !cfg.Inline(in.Site) || m.Func(in.Callee) == nil {
			return
		}
		for _, s := range in.Trail {
			if s == in.Site {
				return // recursion bound: this site was already expanded
			}
		}
		sc.queue = append(sc.queue, work{fn, in})
	}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				push(f, in)
			}
		}
	}

	total := m.NumInstrs()
	for i := 0; i < len(sc.queue); i++ {
		w := sc.queue[i]
		callee := m.Func(w.call.Callee)
		if callee == nil {
			continue
		}
		if _, ok := sc.into[callee]; ok {
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
		// the expansion inserted. One block-name pool per function for the
		// whole Apply: expansions only add blocks, so a pool seeded with
		// the function's names and fed every name it issues always holds
		// exactly the function's current block names. An Apply into an
		// arena names nothing.
		at, err := locate(w.fn, w.call, callee)
		if err != nil {
			return err
		}
		names, ok := sc.into[w.fn]
		if !ok && opts.Arena == nil {
			names = newNamePool(w.fn)
		}
		sc.into[w.fn] = names
		inserted := expand(w.fn, at, w.call, callee, names, opts.Arena)
		if opts.Check != nil {
			step := fmt.Sprintf("site %d: %s <- %s", w.call.Site, w.fn.Name, callee.Name)
			if err := opts.Check(step); err != nil {
				return &StepError{Step: step, Err: err}
			}
		}
		total += callee.NumInstrs()
		for _, b := range inserted[:len(inserted)-1] { // not the continuation
			for _, in := range b.Instrs {
				push(w.fn, in)
			}
		}
	}
	return nil
}

// work is one queued expansion: call, an instruction of fn.
type work struct {
	fn   *ir.Function
	call *ir.Instr
}

// scratch is Apply's bookkeeping, pooled so that the closure compiles,
// which apply a few expansions each, allocate none of it.
type scratch struct {
	queue []work
	into  map[*ir.Function]*namePool // functions expanded into, with their name pool when naming
}

// maxPooledInto bounds the scratch the pool keeps. Clearing a Go map
// costs its capacity, which the largest Apply sets, so a scratch that
// expanded into more functions, as a whole-module build may, is dropped
// instead, and its queue with it.
const maxPooledInto = 32

var scratchPool = sync.Pool{New: func() any {
	return &scratch{into: make(map[*ir.Function]*namePool)}
}}

func (sc *scratch) release() {
	if len(sc.into) > maxPooledInto {
		return
	}
	clear(sc.queue)
	sc.queue = sc.queue[:0]
	clear(sc.into)
	scratchPool.Put(sc)
}

// namePool hands out block names that are unique against both the
// function's existing blocks and every name the pool already issued. A
// name already taken gets the first free numeric suffix from 2 up; the
// pool remembers where each base name's search stopped, so k copies of one
// callee block cost O(k) probes, not O(k²). The names are those of a
// search from 2 every time, because the taken set only grows.
type namePool struct {
	taken map[string]bool
	next  map[string]int // base name -> first suffix not known to be taken
}

func newNamePool(f *ir.Function) *namePool {
	taken := make(map[string]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		taken[b.Name] = true
	}
	return &namePool{taken: taken, next: make(map[string]int)}
}

func (np *namePool) unique(name string) string {
	cand := name
	if np.taken[cand] {
		i := max(np.next[name], 2)
		for np.taken[name+strconv.Itoa(i)] {
			i++
		}
		cand = name + strconv.Itoa(i)
		np.next[name] = i + 1
	}
	np.taken[cand] = true
	return cand
}
