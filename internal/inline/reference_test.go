package inline

import (
	"fmt"
	"slices"
	"strconv"

	"optinline/internal/callgraph"
	"optinline/internal/ir"
)

// This file keeps the previous inline expansion as the reference the
// arena path and the whole-module path are held to. It names every block
// it inserts, drawing names from a pool that searches suffixes from 2 on
// every call; allocates every object fresh; gives the continuation a new
// parameter; and walks the whole caller to rewrite uses of the call's
// result to it.

// refExpand is the previous Call: it inlines call, an instruction of f,
// with callee and returns the blocks it inserted.
func refExpand(f *ir.Function, call *ir.Instr, callee *ir.Function) ([]*ir.Block, error) {
	names := refNewNamePool(f)
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

	body := callee.Clone()
	for _, b := range body.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				trail := make([]int, len(call.Trail)+len(in.Trail)+1)
				n := copy(trail, call.Trail)
				trail[n] = call.Site
				copy(trail[n+1:], in.Trail)
				in.Trail = trail
			}
		}
	}

	cont := &ir.Block{Name: names.unique(host.Name + ".cont")}
	retParam := f.NewValue("")
	retParam.Parm = cont
	cont.Params = []*ir.Value{retParam}
	cont.Instrs = append(cont.Instrs, host.Instrs[instrIdx+1:]...)

	host.Instrs = host.Instrs[:instrIdx]
	host.Instrs = append(host.Instrs, &ir.Instr{
		Op:    ir.OpBr,
		Succs: []ir.Succ{{Dest: body.Entry(), Args: append([]*ir.Value(nil), call.Args...)}},
	})

	for _, b := range body.Blocks {
		t := b.Term()
		if t != nil && t.Op == ir.OpRet {
			rv := t.Args[0]
			t.Op = ir.OpBr
			t.Args = nil
			t.Succs = []ir.Succ{{Dest: cont, Args: []*ir.Value{rv}}}
		}
	}

	insert := make([]*ir.Block, 0, len(body.Blocks)+1)
	for _, b := range body.Blocks {
		b.Name = names.unique(callee.Name + "." + b.Name)
		insert = append(insert, b)
	}
	insert = append(insert, cont)
	f.Blocks = slices.Insert(f.Blocks, blockIdx+1, insert...)

	refReplaceUses(f, call.Result, retParam)
	return insert, nil
}

// refNamePool is the previous block-name pool: every name taken searches
// suffixes from 2.
type refNamePool struct {
	taken map[string]bool
}

func refNewNamePool(f *ir.Function) *refNamePool {
	taken := make(map[string]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		taken[b.Name] = true
	}
	return &refNamePool{taken: taken}
}

func (np *refNamePool) unique(name string) string {
	cand := name
	for i := 2; np.taken[cand]; i++ {
		cand = name + strconv.Itoa(i)
	}
	np.taken[cand] = true
	return cand
}

func refReplaceUses(f *ir.Function, old, repl *ir.Value) {
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

// refApply is Apply on the reference expansion, without its shortcuts:
// every expansion gets a fresh name pool, the new calls are found by
// diffing the caller's block set, and a seen set keeps moved calls from
// being queued twice.
func refApply(m *ir.Module, cfg *callgraph.Config) error {
	type work struct {
		fn   *ir.Function
		call *ir.Instr
	}
	var queue []work
	seen := make(map[*ir.Instr]bool)
	push := func(fn *ir.Function, in *ir.Instr) {
		if in.Op != ir.OpCall || !cfg.Inline(in.Site) || seen[in] || m.Func(in.Callee) == nil {
			return
		}
		for _, s := range in.Trail {
			if s == in.Site {
				return
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
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		before := make(map[*ir.Block]bool)
		for _, b := range w.fn.Blocks {
			before[b] = true
		}
		if _, err := refExpand(w.fn, w.call, m.Func(w.call.Callee)); err != nil {
			return err
		}
		for _, b := range w.fn.Blocks {
			if !before[b] {
				for _, in := range b.Instrs {
					push(w.fn, in)
				}
			}
		}
	}
	return nil
}
