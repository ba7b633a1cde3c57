package opt

import (
	"fmt"

	"optinline/internal/ir"
)

// This file keeps a direct implementation of the optimizer as a
// test-internal reference, the way the search package keeps
// exhaustiveOptimal: the same pass order and fixpoint loop, with
// string-keyed CSE that copies its table into every dominated block, a
// whole-function replaceUses walk per replaced value, map-based per-pass
// tables, and block merging and dead-code removal that rescan until
// nothing changes. TestOptimizerMatchesReference requires the production
// pipeline to leave every function byte-identical to it, with equal Stats.

var refPipeline = []func(*ir.Function, *Stats) bool{
	refPropagateParams,
	refFoldConstants,
	refCSEBlocks,
	refFoldBranches,
	refRemoveUnreachable,
	refMergeBlocks,
	refRemoveDeadInstrs,
}

// refFunction optimizes f to a fixpoint with the reference passes.
func refFunction(f *ir.Function) Stats {
	var st Stats
	for st.Iterations = 1; st.Iterations <= MaxIterations; st.Iterations++ {
		changed := false
		for _, run := range refPipeline {
			if run(f, &st) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return st
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

func refConstOf(v *ir.Value) (int64, bool) {
	if v != nil && v.Def != nil && v.Def.Op == ir.OpConst {
		return v.Def.Const, true
	}
	return 0, false
}

func refPropagateParams(f *ir.Function, st *Stats) bool {
	edges := make(map[*ir.Block][]inEdge)
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil {
			continue
		}
		for i, s := range t.Succs {
			edges[s.Dest] = append(edges[s.Dest], inEdge{t, i})
		}
	}
	changed := false
	for _, b := range f.Blocks {
		if b == f.Entry() || len(b.Params) == 0 {
			continue
		}
		es := edges[b]
		if len(es) != 1 {
			continue
		}
		e := es[0]
		args := e.instr.Succs[e.succ].Args
		self := false
		for _, a := range args {
			if a.Parm == b {
				self = true
				break
			}
		}
		if self {
			continue
		}
		for i, p := range b.Params {
			refReplaceUses(f, p, args[i])
		}
		b.Params = nil
		e.instr.Succs[e.succ].Args = nil
		st.ParamsPropped++
		changed = true
	}
	return changed
}

func refFoldConstants(f *ir.Function, st *Stats) bool {
	changed := false
	toConst := func(in *ir.Instr, c int64) {
		in.Op = ir.OpConst
		in.Const = c
		in.Args = nil
		st.ConstsFolded++
		changed = true
	}
	identity := func(in *ir.Instr, v *ir.Value) {
		refReplaceUses(f, in.Result, v)
		st.ConstsFolded++
		changed = true
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpUn:
				if c, ok := refConstOf(in.Args[0]); ok {
					if in.UnOp == ir.Neg {
						toConst(in, -c)
					} else if c == 0 {
						toConst(in, 1)
					} else {
						toConst(in, 0)
					}
				}
			case ir.OpBin:
				a, aok := refConstOf(in.Args[0])
				bc, bok := refConstOf(in.Args[1])
				switch {
				case aok && bok:
					toConst(in, evalConstBin(in.BinOp, a, bc))
				case bok:
					switch {
					case bc == 0 && (in.BinOp == ir.Add || in.BinOp == ir.Sub ||
						in.BinOp == ir.Or || in.BinOp == ir.Xor ||
						in.BinOp == ir.Shl || in.BinOp == ir.Shr):
						identity(in, in.Args[0])
					case bc == 1 && (in.BinOp == ir.Mul || in.BinOp == ir.Div):
						identity(in, in.Args[0])
					case bc == 0 && (in.BinOp == ir.Mul || in.BinOp == ir.And ||
						in.BinOp == ir.Div || in.BinOp == ir.Mod):
						toConst(in, 0)
					}
				case aok:
					switch {
					case a == 0 && (in.BinOp == ir.Add || in.BinOp == ir.Or || in.BinOp == ir.Xor):
						identity(in, in.Args[1])
					case a == 1 && in.BinOp == ir.Mul:
						identity(in, in.Args[1])
					case a == 0 && (in.BinOp == ir.Mul || in.BinOp == ir.And):
						toConst(in, 0)
					}
				}
			}
		}
	}
	return changed
}

func refCSEBlocks(f *ir.Function, st *Stats) bool {
	idom := f.Dominators()
	rpo := f.ReversePostorder()
	tables := make(map[*ir.Block]map[string]*ir.Value, len(rpo))
	changed := false
	for _, b := range rpo {
		var table map[string]*ir.Value
		if parent := idom[b]; parent != nil && tables[parent] != nil {
			table = make(map[string]*ir.Value, len(tables[parent]))
			for k, v := range tables[parent] {
				table[k] = v
			}
		} else {
			table = make(map[string]*ir.Value)
		}
		for _, in := range b.Instrs {
			key, ok := refCSEKey(in)
			if !ok {
				continue
			}
			if prev, seen := table[key]; seen {
				refReplaceUses(f, in.Result, prev)
				st.InstrsRemoved++
				changed = true
				continue
			}
			table[key] = in.Result
		}
		tables[b] = table
	}
	return changed
}

func refCSEKey(in *ir.Instr) (string, bool) {
	switch in.Op {
	case ir.OpConst:
		return fmt.Sprintf("c:%d", in.Const), true
	case ir.OpUn:
		return fmt.Sprintf("u:%d:%p", in.UnOp, in.Args[0]), true
	case ir.OpBin:
		a, b := in.Args[0], in.Args[1]
		if commutative(in.BinOp) && fmt.Sprintf("%p", a) > fmt.Sprintf("%p", b) {
			a, b = b, a
		}
		return fmt.Sprintf("b:%d:%p:%p", in.BinOp, a, b), true
	}
	return "", false
}

func refFoldBranches(f *ir.Function, st *Stats) bool {
	changed := false
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.OpCondBr {
			continue
		}
		if c, ok := refConstOf(t.Args[0]); ok {
			taken := t.Succs[1]
			if c != 0 {
				taken = t.Succs[0]
			}
			t.Op = ir.OpBr
			t.Args = nil
			t.Succs = []ir.Succ{taken}
			st.BranchesFolded++
			changed = true
			continue
		}
		if sameSucc(t.Succs[0], t.Succs[1]) {
			t.Op = ir.OpBr
			t.Args = nil
			t.Succs = t.Succs[:1]
			st.BranchesFolded++
			changed = true
		}
	}
	return changed
}

func refRemoveUnreachable(f *ir.Function, st *Stats) bool {
	reach := f.Reachable()
	if len(reach) == len(f.Blocks) {
		return false
	}
	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if reach[b] {
			kept = append(kept, b)
		} else {
			st.BlocksRemoved++
		}
	}
	f.Blocks = kept
	return true
}

func refMergeBlocks(f *ir.Function, st *Stats) bool {
	changed := false
	for {
		merged := false
		predEdges := make(map[*ir.Block]int)
		predOf := make(map[*ir.Block]*ir.Block)
		for _, b := range f.Blocks {
			t := b.Term()
			if t == nil {
				continue
			}
			for _, s := range t.Succs {
				predEdges[s.Dest]++
				predOf[s.Dest] = b
			}
		}
		for _, b := range f.Blocks {
			if b == f.Entry() || predEdges[b] != 1 {
				continue
			}
			p := predOf[b]
			if p == b {
				continue
			}
			t := p.Term()
			if t.Op != ir.OpBr {
				continue
			}
			for i, prm := range b.Params {
				refReplaceUses(f, prm, t.Succs[0].Args[i])
			}
			p.Instrs = p.Instrs[:len(p.Instrs)-1]
			p.Instrs = append(p.Instrs, b.Instrs...)
			for i, bb := range f.Blocks {
				if bb == b {
					f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
					break
				}
			}
			st.BlocksRemoved++
			merged, changed = true, true
			break // maps are stale; recompute
		}
		if !merged {
			return changed
		}
	}
}

func refRemoveDeadInstrs(f *ir.Function, st *Stats) bool {
	changed := false
	for {
		used := make(map[*ir.Value]bool)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for _, a := range in.Args {
					used[a] = true
				}
				for _, s := range in.Succs {
					for _, a := range s.Args {
						used[a] = true
					}
				}
			}
		}
		removedAny := false
		for _, b := range f.Blocks {
			kept := b.Instrs[:0]
			for _, in := range b.Instrs {
				if in.Result != nil && !used[in.Result] && !in.HasSideEffects() {
					st.InstrsRemoved++
					removedAny = true
					continue
				}
				kept = append(kept, in)
			}
			b.Instrs = kept
		}
		if !removedAny {
			return changed
		}
		changed = true
	}
}
