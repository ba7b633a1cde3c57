package ir

// Clone returns a deep copy of the function. The copy shares nothing with
// the original: all blocks, instructions, and values are fresh, with uses
// remapped. Call-site IDs and inline trails are preserved (clones of a call
// are coupled to the original's inlining label).
//
// Cloning sits on the compile engine's miss path, which clones every
// member of an inline closure that the inliner will write, and every
// callee body it splices in. So Clone counts the function first and
// allocates one slab each for blocks, instructions, values, successor
// edges, operand pointers and trails. Every block and instruction gets a
// sub-slice whose capacity equals its length, so a pass that later appends
// to one reallocates instead of writing into its neighbour.
//
// The copy is born numbered (see Number). When f's own numbering is
// current, as it is for any clone not edited since, Clone finds the copy
// of a block or value by its number; otherwise it builds exact-size maps.
// Clone only reads f: workers clone the same base function concurrently.
func (f *Function) Clone() *Function { return f.CloneIn(nil) }

// CloneIn is Clone carving the copy's slabs, and the index of a numbered
// f's values, from a; a nil a allocates them fresh, as Clone does. The
// copy lives until a's next Release, and grows its instruction lists in a
// (see AppendInstrs).
func (f *Function) CloneIn(a *Arena) *Function {
	var nf *Function
	if a == nil {
		nf = &Function{}
	} else {
		nf = &a.funcs.take(1)[0]
	}
	nf.Name, nf.Exported = f.Name, f.Exported
	nf.nextValue, nf.nextBlock = f.nextValue, f.nextBlock
	nf.arena = a
	if len(f.Blocks) == 0 {
		return nf
	}
	numbered := true
	var ninstrs, nvals, nsuccs, nops, ntrail int
	for i, b := range f.Blocks {
		numbered = numbered && int(b.num) == i
		ninstrs += len(b.Instrs)
		nops += len(b.Params) // parameter lists are operand-pointer slices too
		for _, p := range b.Params {
			numbered = numbered && int(p.num) == nvals
			nvals++
		}
		for _, in := range b.Instrs {
			if in.Result != nil {
				numbered = numbered && int(in.Result.num) == nvals
				nvals++
			}
			nops += len(in.Args)
			nsuccs += len(in.Succs)
			for _, s := range in.Succs {
				nops += len(s.Args)
			}
			ntrail += len(in.Trail)
		}
	}
	var blocks []Block
	var blockPtrs []*Block
	var instrs []Instr
	var instrPtrs []*Instr
	var vals []Value
	var succs []Succ
	var ops []*Value
	if a == nil {
		blocks, blockPtrs = make([]Block, len(f.Blocks)), make([]*Block, len(f.Blocks))
		instrs, instrPtrs = make([]Instr, ninstrs), make([]*Instr, ninstrs)
		vals, succs, ops = make([]Value, nvals), make([]Succ, nsuccs), make([]*Value, nops)
	} else {
		blocks, blockPtrs = a.blocks.take(len(f.Blocks)), a.blockPtrs.take(len(f.Blocks))
		instrs, instrPtrs = a.instrs.take(ninstrs), a.instrPtrs.take(ninstrs)
		vals, succs, ops = a.values.take(nvals), a.succs.take(nsuccs), a.operands.take(nops)
	}
	trails := a.Ints(ntrail)

	// A value maps to its copy through its number, checked against olds
	// (f's values in definition order, parallel to vals), or through
	// vindex when f's numbering is stale. An operand f does not define
	// (only possible in IR that fails Verify) gets a fresh, definition-less
	// copy, the same one for every use.
	var olds []*Value
	var vindex map[*Value]int32
	var bindex map[*Block]int32
	switch {
	case numbered && a == nil:
		olds = make([]*Value, nvals)
	case numbered:
		if cap(a.olds) < nvals {
			a.olds = make([]*Value, nvals)
		}
		olds = a.olds[:nvals] // every slot is defined before any is read
	default:
		vindex = make(map[*Value]int32, nvals)
		bindex = make(map[*Block]int32, len(f.Blocks))
	}
	var foreign map[*Value]*Value
	defined := 0
	define := func(v *Value) *Value {
		n := defined
		defined++
		if numbered {
			olds[n] = v
		} else {
			vindex[v] = int32(n)
		}
		nv := &vals[n]
		nv.ID, nv.num, nv.Name = v.ID, int32(n), v.Name
		return nv
	}
	use := func(v *Value) *Value {
		if v == nil {
			return nil
		}
		if numbered {
			if n := int(v.num); n >= 0 && n < len(olds) && olds[n] == v {
				return &vals[n]
			}
		} else if n, ok := vindex[v]; ok {
			return &vals[n]
		}
		if nv, ok := foreign[v]; ok {
			return nv
		}
		if foreign == nil {
			foreign = make(map[*Value]*Value)
		}
		nv := &Value{ID: v.ID, Name: v.Name}
		foreign[v] = nv
		return nv
	}
	block := func(b *Block) *Block {
		if numbered {
			if n := int(b.num); n >= 0 && n < len(f.Blocks) && f.Blocks[n] == b {
				return &blocks[n]
			}
		} else if n, ok := bindex[b]; ok {
			return &blocks[n]
		}
		return nil // a foreign branch target (IR that fails Verify)
	}
	// carve cuts the next n operand pointers off the slab; empty operand
	// lists stay nil, as in a function built by appending.
	carve := func(n int) []*Value {
		if n == 0 {
			return nil
		}
		s := ops[:n:n]
		ops = ops[n:]
		return s
	}

	// Blocks, block parameters and instruction results first, so operands
	// can refer forward.
	next := 0
	for i, b := range f.Blocks {
		nb := &blocks[i]
		nb.Name, nb.num = b.Name, int32(i)
		blockPtrs[i] = nb
		if !numbered {
			bindex[b] = int32(i)
		}
		nb.Params = carve(len(b.Params))
		for k, p := range b.Params {
			np := define(p)
			np.Parm = nb
			nb.Params[k] = np
		}
		if len(b.Instrs) > 0 {
			nb.Instrs = instrPtrs[next : next+len(b.Instrs) : next+len(b.Instrs)]
		}
		for k, in := range b.Instrs {
			ni := &instrs[next+k]
			nb.Instrs[k] = ni
			if in.Result != nil {
				ni.Result = define(in.Result)
				ni.Result.Def = ni
			}
		}
		next += len(b.Instrs)
	}
	next = 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			ni := &instrs[next]
			next++
			ni.Op = in.Op
			ni.Const = in.Const
			ni.BinOp = in.BinOp
			ni.UnOp = in.UnOp
			ni.Callee = in.Callee
			ni.Global = in.Global
			ni.Site = in.Site
			if n := len(in.Trail); n > 0 {
				ni.Trail = trails[:n:n]
				trails = trails[n:]
				copy(ni.Trail, in.Trail)
			}
			ni.Args = carve(len(in.Args))
			for k, a := range in.Args {
				ni.Args[k] = use(a)
			}
			if n := len(in.Succs); n > 0 {
				ni.Succs = succs[:n:n]
				succs = succs[n:]
				for k, s := range in.Succs {
					ns := Succ{Dest: block(s.Dest), Args: carve(len(s.Args))}
					for j, a := range s.Args {
						ns.Args[j] = use(a)
					}
					ni.Succs[k] = ns
				}
			}
		}
	}
	nf.Blocks = blockPtrs
	return nf
}

// Clone returns a deep copy of the module.
func (m *Module) Clone() *Module {
	nm := NewModule(m.Name)
	nm.Globals = append([]string(nil), m.Globals...)
	for _, f := range m.Funcs {
		nm.AddFunc(f.Clone())
	}
	return nm
}
