package opt

import "optinline/internal/ir"

// inEdge is one incoming CFG edge: the branching instruction and which of
// its successors points at the block. Two edges from one branch count
// separately because they may pass different arguments.
type inEdge struct {
	instr *ir.Instr
	succ  int
}

// propagateParams substitutes block parameters of single-predecessor blocks
// with the argument passed on the unique incoming edge. Combined with block
// merging this implements the "optimization scope extension" that inlining
// enables: the inlined callee entry has one predecessor (the call site), so
// constant call arguments flow straight into the callee body.
func propagateParams(s *state) bool {
	f := s.f
	count, edge := s.blockCount, s.blockEdge
	clear(count)
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil {
			continue
		}
		for i, sc := range t.Succs {
			n := sc.Dest.Num()
			count[n]++
			edge[n] = inEdge{t, i}
		}
	}
	changed := false
	for _, b := range f.Blocks {
		if b == f.Entry() || len(b.Params) == 0 || count[b.Num()] != 1 {
			continue
		}
		e := edge[b.Num()]
		args := e.instr.Succs[e.succ].Args
		// A block cannot feed its own parameters (self-loop): substitution
		// would be circular. Such a block is unreachable anyway.
		self := false
		for _, a := range args {
			if s.resolve(a).Parm == b {
				self = true
				break
			}
		}
		if self {
			continue
		}
		for i, p := range b.Params {
			s.substitute(p, args[i])
		}
		b.Params = nil
		e.instr.Succs[e.succ].Args = nil
		s.st.ParamsPropped++
		changed = true
	}
	s.flush()
	return changed
}

// constOf returns the constant value v stands for if its definition is a
// constant.
func (s *state) constOf(v *ir.Value) (int64, bool) {
	if v = s.resolve(v); v.Def != nil && v.Def.Op == ir.OpConst {
		return v.Def.Const, true
	}
	return 0, false
}

// foldConstants rewrites arithmetic on constants into constants and applies
// algebraic identities (x+0, x*1, x*0, ...).
func foldConstants(s *state) bool {
	st := s.st
	changed := false
	toConst := func(in *ir.Instr, c int64) {
		in.Op = ir.OpConst
		in.Const = c
		in.Args = nil
		st.ConstsFolded++
		changed = true
	}
	// identity replaces the instruction's result with an existing value;
	// the now-dead instruction is collected by DCE.
	identity := func(in *ir.Instr, v *ir.Value) {
		s.substitute(in.Result, v)
		st.ConstsFolded++
		changed = true
	}
	for _, b := range s.f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpUn:
				if c, ok := s.constOf(in.Args[0]); ok {
					if in.UnOp == ir.Neg {
						toConst(in, -c)
					} else if c == 0 {
						toConst(in, 1)
					} else {
						toConst(in, 0)
					}
				}
			case ir.OpBin:
				a, aok := s.constOf(in.Args[0])
				bc, bok := s.constOf(in.Args[1])
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
	s.flush()
	return changed
}

// evalConstBin mirrors the interpreter's total arithmetic. Keeping the two
// in sync is checked by a differential property test.
func evalConstBin(op ir.BinOp, a, b int64) int64 {
	switch op {
	case ir.Add:
		return a + b
	case ir.Sub:
		return a - b
	case ir.Mul:
		return a * b
	case ir.Div:
		if b == 0 {
			return 0
		}
		return a / b
	case ir.Mod:
		if b == 0 {
			return 0
		}
		return a % b
	case ir.And:
		return a & b
	case ir.Or:
		return a | b
	case ir.Xor:
		return a ^ b
	case ir.Shl:
		return a << (uint64(b) & 63)
	case ir.Shr:
		return a >> (uint64(b) & 63)
	case ir.Eq:
		return b2i(a == b)
	case ir.Ne:
		return b2i(a != b)
	case ir.Lt:
		return b2i(a < b)
	case ir.Le:
		return b2i(a <= b)
	case ir.Gt:
		return b2i(a > b)
	case ir.Ge:
		return b2i(a >= b)
	}
	return 0
}

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// foldBranches turns conditional branches with constant conditions (or with
// identical arms) into unconditional branches.
func foldBranches(s *state) bool {
	st := s.st
	changed := false
	for _, b := range s.f.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.OpCondBr {
			continue
		}
		if c, ok := s.constOf(t.Args[0]); ok {
			taken := t.Succs[1]
			if c != 0 {
				taken = t.Succs[0]
			}
			t.Op = ir.OpBr
			t.Args = nil
			t.Succs = append(t.Succs[:0], taken)
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

func sameSucc(a, b ir.Succ) bool {
	if a.Dest != b.Dest || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// removeUnreachable deletes blocks not reachable from the entry.
func removeUnreachable(s *state) bool {
	f := s.f
	entry := f.Entry()
	if entry == nil {
		return false
	}
	reach := s.reach
	clear(reach)
	reach[entry.Num()] = true
	n := 1
	stack := append(s.blockStack[:0], entry)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, sc := range b.Succs() {
			if d := sc.Dest.Num(); !reach[d] {
				reach[d] = true
				n++
				stack = append(stack, sc.Dest)
			}
		}
	}
	s.blockStack = stack
	if n == len(f.Blocks) {
		return false
	}
	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if reach[b.Num()] {
			kept = append(kept, b)
		} else {
			s.st.BlocksRemoved++
		}
	}
	f.Blocks = kept
	return true
}

// mergeBlocks splices a block into its unique predecessor when that
// predecessor ends in an unconditional branch to it.
//
// One scan in block order merges exactly what merging the first eligible
// block and rescanning would: a merge moves the block's terminator, with
// its successor edges, into the predecessor, so edge counts stay the same,
// the moved edges' source becomes the predecessor (whose terminator is the
// same instruction), and no block that was ineligible becomes eligible.
func mergeBlocks(s *state) bool {
	f := s.f
	count, pred := s.blockCount, s.blockPred
	clear(count)
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil {
			continue
		}
		for _, sc := range t.Succs {
			count[sc.Dest.Num()]++
			pred[sc.Dest.Num()] = b
		}
	}
	entry := f.Entry()
	changed := false
	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		p := pred[b.Num()]
		if b == entry || count[b.Num()] != 1 || p == b || p.Term().Op != ir.OpBr {
			kept = append(kept, b)
			continue
		}
		// Substitute params (propagateParams usually did this already,
		// but merging may expose new single-pred blocks mid-loop).
		for i, prm := range b.Params {
			s.substitute(prm, p.Term().Succs[0].Args[i])
		}
		p.Instrs = f.AppendInstrs(p.Instrs[:len(p.Instrs)-1], b.Instrs...) // drop the br
		for _, sc := range b.Term().Succs {
			pred[sc.Dest.Num()] = p
		}
		s.st.BlocksRemoved++
		changed = true
	}
	f.Blocks = kept
	s.flush()
	return changed
}

// removeDeadInstrs deletes pure instructions whose results are unused,
// transitively: a deleted instruction's operands lose a use, and an
// operand whose count drops to zero is deleted in turn. Calls, stores,
// outputs, and terminators are never deleted here.
func removeDeadInstrs(s *state) bool {
	uses := s.uses
	clear(uses)
	for _, b := range s.f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				uses[a.Num()]++
			}
			for _, sc := range in.Succs {
				for _, a := range sc.Args {
					uses[a.Num()]++
				}
			}
		}
	}
	pure := func(in *ir.Instr) bool { return in.Result != nil && !in.HasSideEffects() }
	dead := s.dead[:0]
	for _, b := range s.f.Blocks {
		for _, in := range b.Instrs {
			if pure(in) && uses[in.Result.Num()] == 0 {
				dead = append(dead, in)
			}
		}
	}
	if len(dead) == 0 {
		return false
	}
	for i := 0; i < len(dead); i++ {
		for _, a := range dead[i].Args {
			if uses[a.Num()]--; uses[a.Num()] == 0 && a.Def != nil && pure(a.Def) {
				dead = append(dead, a.Def)
			}
		}
	}
	s.dead = dead[:0]
	for _, b := range s.f.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if pure(in) && uses[in.Result.Num()] == 0 {
				s.st.InstrsRemoved++
				continue
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
	}
	return true
}
