package ir

import "slices"

// An Arena recycles the slabs that CloneIn carves copies from. A caller
// that clones functions only to measure them and then drops every copy
// clones through one Arena, calls Release once nothing refers to the
// copies any more, and the next round of clones reuses the same memory
// instead of leaving it to the garbage collector.
//
// The inliner and the optimizer carve what they add to such copies from
// the same Arena: blocks, branches, successor edges, operand lists and the
// longer block and instruction lists an expansion or a block merge needs
// (a function remembers the Arena it was cloned into). The helpers below
// take a nil receiver to mean "allocate fresh", so one code path serves
// both.
//
// Release zeroes every slot the Arena handed out, so a released Arena
// keeps nothing reachable. An Arena is not safe for concurrent use. The
// zero value is ready to use.
type Arena struct {
	funcs     chunks[Function]
	blocks    chunks[Block]
	blockPtrs chunks[*Block]
	instrs    chunks[Instr]
	instrPtrs chunks[*Instr]
	values    chunks[Value]
	succs     chunks[Succ]
	operands  chunks[*Value]
	ints      chunks[int]

	olds []*Value // Clone's index of a numbered source's values

	mod     Module // the round's module, see NewModule
	modUsed bool
}

// maxPooledNames bounds the function-name index an Arena's module keeps
// between rounds. Clearing a Go map costs its capacity, which the largest
// round sets, so an index that grew past the bound is dropped instead.
const maxPooledNames = 64

// chunks hands out sub-slices of a few large buffers.
type chunks[T any] struct {
	bufs [][]T
	cur  int // the buffer being carved
	off  int // slots of bufs[cur] handed out
}

// take returns n zeroed slots whose capacity ends where they do, so an
// append reallocates instead of writing into the next slots.
func (c *chunks[T]) take(n int) []T {
	for ; c.cur < len(c.bufs); c.cur, c.off = c.cur+1, 0 {
		if b := c.bufs[c.cur]; c.off+n <= len(b) {
			s := b[c.off : c.off+n : c.off+n]
			c.off += n
			return s
		}
	}
	size := n
	if k := len(c.bufs); k > 0 {
		size = max(size, 2*len(c.bufs[k-1]))
	}
	c.bufs = append(c.bufs, make([]T, max(size, 64)))
	c.cur, c.off = len(c.bufs)-1, n
	return c.bufs[c.cur][:n:n]
}

// reset zeroes every slot handed out. A round that needed more than one
// buffer leaves one buffer as large as all of them, so the next round of
// the same size carves from a single buffer.
func (c *chunks[T]) reset() {
	if len(c.bufs) == 0 {
		return
	}
	total := 0
	for _, b := range c.bufs[:c.cur] {
		clear(b) // slots past those handed out are zero already
		total += len(b)
	}
	clear(c.bufs[c.cur][:c.off])
	if c.cur > 0 {
		total += len(c.bufs[c.cur])
		c.bufs = append(c.bufs[:0], make([]T, total))
		clear(c.bufs[1:cap(c.bufs)])
	}
	c.cur, c.off = 0, 0
}

// Ints returns n zeroed ints carved from the Arena, or freshly allocated
// when a is nil. Their capacity ends where they do.
func (a *Arena) Ints(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	return a.ints.take(n)
}

// NewBlock returns a zeroed block carved from a, or a fresh one when a is
// nil.
func (a *Arena) NewBlock() *Block {
	if a == nil {
		return &Block{}
	}
	return &a.blocks.take(1)[0]
}

// NewInstr returns a zeroed instruction carved from a, or a fresh one when
// a is nil.
func (a *Arena) NewInstr() *Instr {
	if a == nil {
		return &Instr{}
	}
	return &a.instrs.take(1)[0]
}

// Operands returns n nil operand slots carved from a, or freshly allocated
// when a is nil. Their capacity ends where they do.
func (a *Arena) Operands(n int) []*Value {
	if a == nil {
		return make([]*Value, n)
	}
	return a.operands.take(n)
}

// Succs returns n zeroed successor edges carved from a, or freshly
// allocated when a is nil. Their capacity ends where they do.
func (a *Arena) Succs(n int) []Succ {
	if a == nil {
		return make([]Succ, n)
	}
	return a.succs.take(n)
}

// AppendInstrs is append(list, more...), except that when list is full the
// longer list is carved from a, with room to grow, instead of allocated.
func (a *Arena) AppendInstrs(list []*Instr, more ...*Instr) []*Instr {
	n := len(list) + len(more)
	if a == nil || n <= cap(list) {
		return append(list, more...)
	}
	grown := a.instrPtrs.take(max(n, 2*cap(list)))[:n]
	copy(grown[copy(grown, list):], more)
	return grown
}

// OpenBlocks returns list with n nil slots opened at index i, for the
// caller to fill. When list is full the longer list is carved from a, with
// room to grow, instead of allocated.
func (a *Arena) OpenBlocks(list []*Block, i, n int) []*Block {
	grown := list
	switch m := len(list) + n; {
	case m <= cap(list):
		grown = list[:m]
	case a == nil:
		grown = slices.Grow(list, n)[:m]
	default:
		grown = a.blockPtrs.take(max(m, 2*cap(list)))[:m]
		copy(grown, list[:i])
	}
	copy(grown[i+n:], list[i:])
	clear(grown[i : i+n])
	return grown
}

// NewModule returns an empty module named name that lives until a's next
// Release, or a fresh one when a is nil. An Arena keeps one module per
// round; a second call before Release returns a fresh one.
func (a *Arena) NewModule(name string) *Module {
	if a == nil || a.modUsed {
		return NewModule(name)
	}
	a.modUsed = true
	m := &a.mod
	m.Name = name
	if m.byName == nil {
		m.byName = make(map[string]*Function)
	}
	return m
}

// Release zeroes every slot the Arena handed out and makes all of them
// available again. Nothing carved from a before the call may be used
// after it.
func (a *Arena) Release() {
	a.funcs.reset()
	a.blocks.reset()
	a.blockPtrs.reset()
	a.instrs.reset()
	a.instrPtrs.reset()
	a.values.reset()
	a.succs.reset()
	a.operands.reset()
	a.ints.reset()
	clear(a.olds[:cap(a.olds)])
	m := &a.mod
	clear(m.Funcs) // slots past len were never written
	m.Name, m.Globals, m.Funcs = "", nil, m.Funcs[:0]
	if len(m.byName) > maxPooledNames {
		m.byName = nil
	} else {
		clear(m.byName)
	}
	a.modUsed = false
}
