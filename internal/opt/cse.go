package opt

import (
	"slices"

	"optinline/internal/ir"
)

// cseBlocks performs common-subexpression elimination over the dominator
// tree: pure instructions computing the same operation over the same
// operands reuse the earlier result. This matters for inlining studies
// because inlined bodies frequently recompute expressions already available
// in the caller (argument massaging, repeated accessor math), so CSE is one
// of the "further optimizations" inlining enables.
//
// The design is LLVM's EarlyCSE: one table, scoped by a preorder walk of
// the dominator tree. Entering a block adds its new expressions and logs
// them; leaving it removes them again, so a block sees exactly the
// expressions of its dominators, siblings never see each other's, and the
// table is empty when the walk ends. An instruction's operands are defined
// in its dominators (ir.Verify checks this), which are always walked
// first, so the walk eliminates what a reverse-postorder walk would.
func cseBlocks(s *state) bool {
	c := &s.cse
	dt := &c.dom
	dt.Compute(s.f, s.nblocks)
	n := len(dt.RPO)
	if n == 0 {
		return false
	}

	// Children lists of the dominator tree in CSR form.
	c.kidOff = slices.Grow(c.kidOff[:0], n+1)[:n+1]
	clear(c.kidOff)
	for i := 1; i < n; i++ {
		c.kidOff[dt.Idom[i]]++
	}
	for i := 1; i <= n; i++ {
		c.kidOff[i] += c.kidOff[i-1]
	}
	c.kids = slices.Grow(c.kids[:0], n)[:n]
	for i := n - 1; i >= 1; i-- {
		p := dt.Idom[i]
		c.kidOff[p]--
		c.kids[c.kidOff[p]] = int32(i)
	}
	// The table never holds more than the candidates on one root-to-leaf
	// path of the dominator tree; mark holds each block's path count
	// until the walk reuses it.
	c.mark = slices.Grow(c.mark[:0], n)[:n]
	most := int32(0)
	for i, b := range dt.RPO {
		path := int32(0)
		if i > 0 {
			path = c.mark[dt.Idom[i]]
		}
		for _, in := range b.Instrs {
			if in.Op == ir.OpConst || in.Op == ir.OpUn || in.Op == ir.OpBin {
				path++
			}
		}
		c.mark[i] = path
		most = max(most, path)
	}
	c.table.reserve(int(most))

	changed := false
	// The walk stack holds RPO indices to enter, and ^i to leave block i.
	stack := append(c.stack[:0], 0)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if i < 0 {
			c.table.undo(c.mark[^i])
			continue
		}
		c.mark[i] = int32(len(c.table.log))
		for _, in := range dt.RPO[i].Instrs {
			key, ok := s.cseKey(in)
			if !ok {
				continue
			}
			slot, prev := c.table.lookup(key)
			if prev != nil {
				s.substitute(in.Result, prev)
				s.st.InstrsRemoved++ // the dead instr is collected by DCE
				changed = true
				continue
			}
			c.table.insert(slot, key, in.Result)
		}
		stack = append(stack, ^i)
		for _, k := range c.kids[c.kidOff[i]:c.kidOff[i+1]] {
			stack = append(stack, k)
		}
	}
	c.stack = stack
	s.flush()
	return changed
}

// cseScratch is cseBlocks' state, reused across the fixpoint loop; the
// table is empty between walks.
type cseScratch struct {
	dom    ir.DomTree
	table  cseTable
	mark   []int32 // by RPO index: table log length when the block was entered
	kidOff []int32 // dominator-tree children, CSR over RPO indices
	kids   []int32
	stack  []int32
}

// cseKey identifies a pure computation: its opcode and operator, and
// either its constant or its operand value numbers (ir.Function.Number).
type cseKey struct {
	op uint32 // opcode<<8 | operator
	x  uint64 // the constant, or operand numbers a<<32 | b (b = -1 for OpUn)
}

func (k cseKey) hash() uint64 {
	h := (k.x ^ uint64(k.op)<<56 ^ uint64(k.op)) * 0x9e3779b97f4a7c15
	h = (h ^ h>>29) * 0xbf58476d1ce4e5b9
	return h ^ h>>32
}

// cseTable is the scoped expression table: open addressing with linear
// probing over the expressions available on the walk's current
// dominator-tree path. Entries leave in exactly the reverse of the order
// they arrived (the undo log), so clearing a slot never breaks another
// entry's probe sequence: every entry that could have probed past it
// arrived later and is already gone.
type cseTable struct {
	slots []cseSlot
	log   []int32 // occupied slots, in insertion order
}

type cseSlot struct {
	key cseKey
	val *ir.Value // nil when the slot is empty
}

// reserve makes room for n entries at a load factor of at most one half.
// The table is empty between walks, so a big enough one is kept as is.
func (t *cseTable) reserve(n int) {
	size := 8
	for size < 2*n {
		size *= 2
	}
	if len(t.slots) < size {
		t.slots = make([]cseSlot, size)
	}
}

// lookup returns the value stored under k, or nil and the empty slot
// where insert should put it.
func (t *cseTable) lookup(k cseKey) (int, *ir.Value) {
	mask := len(t.slots) - 1
	i := int(k.hash()) & mask
	for {
		sl := &t.slots[i]
		if sl.val == nil || sl.key == k {
			return i, sl.val
		}
		i = (i + 1) & mask
	}
}

func (t *cseTable) insert(slot int, k cseKey, v *ir.Value) {
	t.slots[slot] = cseSlot{k, v}
	t.log = append(t.log, int32(slot))
}

// undo removes, newest first, the entries inserted since the log had
// length mark.
func (t *cseTable) undo(mark int32) {
	for j := len(t.log) - 1; j >= int(mark); j-- {
		t.slots[t.log[j]] = cseSlot{}
	}
	t.log = t.log[:mark]
}

// cseKey returns the structural key of a pure, value-producing
// instruction, reading operands through the pass's pending substitution.
// Loads from globals are excluded: an intervening store or call could
// change the loaded value. Commutative operands are ordered by value
// number, so both orders share one key.
func (s *state) cseKey(in *ir.Instr) (cseKey, bool) {
	op := uint32(in.Op) << 8
	switch in.Op {
	case ir.OpConst:
		return cseKey{op, uint64(in.Const)}, true
	case ir.OpUn:
		return cseKey{op | uint32(in.UnOp), operands(s.num(in.Args[0]), -1)}, true
	case ir.OpBin:
		a, b := s.num(in.Args[0]), s.num(in.Args[1])
		if commutative(in.BinOp) && a > b {
			a, b = b, a
		}
		return cseKey{op | uint32(in.BinOp), operands(a, b)}, true
	}
	return cseKey{}, false
}

func operands(a, b int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// num returns the number of the value v stands for.
func (s *state) num(v *ir.Value) int32 { return int32(s.resolve(v).Num()) }

func commutative(op ir.BinOp) bool {
	switch op {
	case ir.Add, ir.Mul, ir.And, ir.Or, ir.Xor, ir.Eq, ir.Ne:
		return true
	}
	return false
}
