package ir

// An Arena recycles the slabs that CloneIn carves copies from. A caller
// that clones functions only to measure them and then drops every copy
// clones through one Arena, calls Release once nothing refers to the
// copies any more, and the next round of clones reuses the same memory
// instead of leaving it to the garbage collector.
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
}

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
}
