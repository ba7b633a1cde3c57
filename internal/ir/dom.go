package ir

import "slices"

// Dominators computes the immediate-dominator relation of the function CFG
// using the simple iterative algorithm (Cooper, Harvey, Kennedy). The result
// maps every reachable block to its immediate dominator; the entry block maps
// to nil. Unreachable blocks are absent from the map.
//
// Dominators only reads f, so analyses may call it on shared functions; a
// pass that owns f uses DomTree instead.
func (f *Function) Dominators() map[*Block]*Block {
	entry := f.Entry()
	if entry == nil {
		return nil
	}
	// Reverse postorder over reachable blocks.
	order := f.ReversePostorder()
	index := make(map[*Block]int, len(order))
	for i, b := range order {
		index[b] = i
	}
	preds := f.Predecessors()
	rpoPreds := make([][]int32, len(order))
	for i, b := range order {
		for _, p := range preds[b] {
			if pi, ok := index[p]; ok {
				rpoPreds[i] = append(rpoPreds[i], int32(pi))
			}
		}
	}
	idom := make([]int32, len(order))
	immediateDominators(idom, func(i int) []int32 { return rpoPreds[i] })
	out := make(map[*Block]*Block, len(order))
	out[entry] = nil
	for i := 1; i < len(order); i++ {
		if idom[i] >= 0 {
			out[order[i]] = order[idom[i]]
		}
	}
	return out
}

// immediateDominators runs the Cooper–Harvey–Kennedy iteration over blocks
// indexed in reverse postorder (index 0 is the entry). preds(i) lists the
// RPO indices of block i's reachable predecessors. It fills idom with each
// block's immediate dominator; idom[0] is 0.
func immediateDominators(idom []int32, preds func(i int) []int32) {
	for i := range idom {
		idom[i] = -1
	}
	idom[0] = 0
	intersect := func(a, b int32) int32 {
		for a != b {
			for a > b {
				a = idom[a]
			}
			for b > a {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for i := 1; i < len(idom); i++ {
			newIdom := int32(-1)
			for _, p := range preds(i) {
				if idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[i] != newIdom {
				idom[i] = newIdom
				changed = true
			}
		}
	}
}

// DomTree is the dominator tree of a numbered function's reachable blocks
// (see Function.Number), indexed in reverse postorder. Compute reuses the
// slices of the previous call, so one DomTree serves a whole fixpoint loop
// without allocating.
type DomTree struct {
	// RPO lists the reachable blocks in reverse postorder, entry first.
	RPO []*Block
	// Idom[i] is the RPO index of RPO[i]'s immediate dominator; Idom[0]
	// is 0. Every other block's dominator comes before it: Idom[i] < i.
	Idom []int32

	rpoNum  []int32 // by block number: RPO index, or -1 if unreachable
	predOff []int32 // CSR predecessor lists over RPO indices
	preds   []int32
	stack   []domFrame
}

type domFrame struct {
	b    *Block
	succ int
}

// Compute fills t for f, whose blocks Number must have numbered below
// nblocks. Like Number, it is for a function the caller owns.
func (t *DomTree) Compute(f *Function, nblocks int) {
	t.RPO = t.RPO[:0]
	entry := f.Entry()
	if entry == nil {
		t.Idom = t.Idom[:0]
		return
	}
	t.rpoNum = slices.Grow(t.rpoNum[:0], nblocks)[:nblocks]
	for i := range t.rpoNum {
		t.rpoNum[i] = -1
	}
	// Iterative DFS in the order ReversePostorder recurses; RPO collects
	// the postorder and is reversed below. rpoNum marks visited blocks.
	t.rpoNum[entry.num] = 0
	t.stack = append(t.stack[:0], domFrame{b: entry})
	for len(t.stack) > 0 {
		top := &t.stack[len(t.stack)-1]
		if succs := top.b.Succs(); top.succ < len(succs) {
			d := succs[top.succ].Dest
			top.succ++
			if t.rpoNum[d.num] < 0 {
				t.rpoNum[d.num] = 0
				t.stack = append(t.stack, domFrame{b: d})
			}
			continue
		}
		t.RPO = append(t.RPO, top.b)
		t.stack = t.stack[:len(t.stack)-1]
	}
	n := len(t.RPO)
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		t.RPO[i], t.RPO[j] = t.RPO[j], t.RPO[i]
	}
	for i, b := range t.RPO {
		t.rpoNum[b.num] = int32(i)
	}
	// Predecessor lists in CSR form: count per block, prefix-sum to each
	// list's end, then fill backwards so each offset ends at its start.
	t.predOff = slices.Grow(t.predOff[:0], n+1)[:n+1]
	clear(t.predOff)
	for _, b := range t.RPO {
		for _, s := range b.Succs() {
			t.predOff[t.rpoNum[s.Dest.num]]++
		}
	}
	for i := 1; i <= n; i++ {
		t.predOff[i] += t.predOff[i-1]
	}
	edges := int(t.predOff[n])
	t.preds = slices.Grow(t.preds[:0], edges)[:edges]
	for i, b := range t.RPO {
		for _, s := range b.Succs() {
			d := t.rpoNum[s.Dest.num]
			t.predOff[d]--
			t.preds[t.predOff[d]] = int32(i)
		}
	}
	t.Idom = slices.Grow(t.Idom[:0], n)[:n]
	immediateDominators(t.Idom, func(i int) []int32 { return t.preds[t.predOff[i]:t.predOff[i+1]] })
}

// ReversePostorder returns the reachable blocks in reverse postorder,
// starting with the entry block.
func (f *Function) ReversePostorder() []*Block {
	entry := f.Entry()
	if entry == nil {
		return nil
	}
	var post []*Block
	seen := make(map[*Block]bool)
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b] = true
		for _, s := range b.Succs() {
			if !seen[s.Dest] {
				dfs(s.Dest)
			}
		}
		post = append(post, b)
	}
	dfs(entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Predecessors returns the CFG predecessor lists of all blocks (a block with
// two edges from the same predecessor lists it twice).
func (f *Function) Predecessors() map[*Block][]*Block {
	preds := make(map[*Block][]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s.Dest] = append(preds[s.Dest], b)
		}
	}
	return preds
}

// Reachable returns the set of blocks reachable from the entry.
func (f *Function) Reachable() map[*Block]bool {
	seen := make(map[*Block]bool)
	entry := f.Entry()
	if entry == nil {
		return seen
	}
	seen[entry] = true
	stack := []*Block{entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs() {
			if !seen[s.Dest] {
				seen[s.Dest] = true
				stack = append(stack, s.Dest)
			}
		}
	}
	return seen
}
