// Package ir defines a small block-argument SSA intermediate representation.
//
// The IR is deliberately minimal but complete enough for function inlining to
// have the cascading effects the paper studies: programs are modules of
// functions; functions are control-flow graphs of basic blocks; blocks carry
// parameters instead of phi nodes; branches pass arguments to their target
// blocks. All data values are 64-bit integers.
//
// Side effects are explicit: OpOutput appends to an observable output stream,
// OpStoreG writes a module global. Calls are conservatively treated as
// side-effecting by the optimizer, so a call can only disappear by being
// inlined or by becoming unreachable — exactly the property the paper's
// search-space partition relies on.
package ir

import "fmt"

// Op enumerates instruction opcodes.
type Op uint8

// Instruction opcodes.
const (
	OpInvalid Op = iota
	OpConst      // result = Const
	OpBin        // result = Args[0] <BinOp> Args[1]
	OpUn         // result = <UnOp> Args[0]
	OpCall       // result = call Callee(Args...)
	OpLoadG      // result = load global Global
	OpStoreG     // store Args[0] into global Global
	OpOutput     // emit Args[0] to the observable output stream
	OpBr         // br Succs[0]
	OpCondBr     // if Args[0] != 0 br Succs[0] else br Succs[1]
	OpRet        // return Args[0]
)

func (op Op) String() string {
	switch op {
	case OpConst:
		return "const"
	case OpBin:
		return "bin"
	case OpUn:
		return "un"
	case OpCall:
		return "call"
	case OpLoadG:
		return "loadg"
	case OpStoreG:
		return "storeg"
	case OpOutput:
		return "output"
	case OpBr:
		return "br"
	case OpCondBr:
		return "condbr"
	case OpRet:
		return "ret"
	}
	return "invalid"
}

// IsTerminator reports whether the opcode ends a basic block.
func (op Op) IsTerminator() bool {
	return op == OpBr || op == OpCondBr || op == OpRet
}

// BinOp enumerates binary operators. Comparison operators yield 0 or 1.
type BinOp uint8

// Binary operators.
const (
	Add BinOp = iota
	Sub
	Mul
	Div // division by zero yields 0 (total semantics)
	Mod // modulo by zero yields 0
	And
	Or
	Xor
	Shl // shift amount is masked to 0..63
	Shr // arithmetic shift; amount masked to 0..63
	Eq
	Ne
	Lt
	Le
	Gt
	Ge
)

var binNames = [...]string{
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Mod: "mod",
	And: "and", Or: "or", Xor: "xor", Shl: "shl", Shr: "shr",
	Eq: "eq", Ne: "ne", Lt: "lt", Le: "le", Gt: "gt", Ge: "ge",
}

func (b BinOp) String() string {
	if int(b) < len(binNames) {
		return binNames[b]
	}
	return "bin?"
}

// BinOpFromString returns the operator named s.
func BinOpFromString(s string) (BinOp, bool) {
	for i, n := range binNames {
		if n == s {
			return BinOp(i), true
		}
	}
	return 0, false
}

// UnOp enumerates unary operators.
type UnOp uint8

// Unary operators.
const (
	Neg UnOp = iota // arithmetic negation
	Not             // logical not: 1 if operand is 0, else 0
)

func (u UnOp) String() string {
	if u == Neg {
		return "neg"
	}
	return "not"
}

// Value is an SSA value: either the result of an instruction or a block
// parameter. Values are identified by pointer; ID and Name aid printing.
type Value struct {
	ID   int32
	num  int32 // dense index from the last Function.Number
	Name string
	Def  *Instr // defining instruction, nil for block parameters
	Parm *Block // owning block when the value is a block parameter
}

func (v *Value) String() string {
	if v == nil {
		return "<nil>"
	}
	if v.Name != "" {
		return "%" + v.Name
	}
	return fmt.Sprintf("%%v%d", v.ID)
}

// Succ is a control-flow edge from a terminator to a destination block,
// carrying the arguments bound to the destination's block parameters.
type Succ struct {
	Dest *Block
	Args []*Value
}

// Instr is a single instruction.
type Instr struct {
	Op     Op
	BinOp  BinOp    // operator for OpBin
	UnOp   UnOp     // operator for OpUn
	Result *Value   // nil for void and terminator instructions
	Args   []*Value // operand values
	Const  int64    // literal for OpConst
	Callee string   // target function name for OpCall
	Global string   // global variable name for OpLoadG/OpStoreG
	Succs  []Succ   // successor edges for terminators

	// Site is the stable call-site identity for OpCall instructions.
	// Clones produced by inlining share the Site of the original call, which
	// implements the paper's "coupled copies" semantics: one inlining label
	// covers every copy of the same original call.
	Site int

	// Trail records the chain of call sites already expanded to materialize
	// this (cloned) call. It bounds recursive inlining: a site that already
	// appears in the trail is never expanded again, implementing the paper's
	// "inline recursive functions at most once".
	Trail []int
}

// IsCall reports whether the instruction is a call.
func (in *Instr) IsCall() bool { return in.Op == OpCall }

// HasSideEffects reports whether the optimizer must preserve the instruction
// even if its result is unused.
func (in *Instr) HasSideEffects() bool {
	switch in.Op {
	case OpCall, OpStoreG, OpOutput, OpBr, OpCondBr, OpRet:
		return true
	}
	return false
}

// Block is a basic block: parameters, a straight-line body, and a terminator
// as the final instruction.
type Block struct {
	Name   string
	Params []*Value
	Instrs []*Instr

	num int32 // dense index from the last Function.Number
}

// Term returns the block terminator, or nil if the block is not yet sealed.
func (b *Block) Term() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.Op.IsTerminator() {
		return nil
	}
	return t
}

// Succs returns the destination blocks of the block terminator.
func (b *Block) Succs() []Succ {
	t := b.Term()
	if t == nil {
		return nil
	}
	return t.Succs
}

// Function is a single function: a name, an export flag, and a CFG whose
// entry block parameters are the function parameters. Every function returns
// a single 64-bit integer.
type Function struct {
	Name     string
	Exported bool // exported functions are never removed by global DCE
	Blocks   []*Block

	nextValue int
	nextBlock int

	arena *Arena // where CloneIn carved f, for the lists f grows; nil: the heap
}

// Entry returns the function entry block.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// NumParams returns the number of function parameters.
func (f *Function) NumParams() int {
	if e := f.Entry(); e != nil {
		return len(e.Params)
	}
	return 0
}

// NewValue allocates a fresh value owned by the function.
func (f *Function) NewValue(name string) *Value {
	v := &Value{ID: int32(f.nextValue), Name: name}
	f.nextValue++
	return v
}

// ReuseValue makes v a fresh value of f: it gets the ID and the empty
// name NewValue("") would give, and loses its definition. The inliner
// turns a call's result into the continuation block's parameter this way,
// so that every use of the result reads the returned value without a walk
// over f to rewrite the uses.
func (f *Function) ReuseValue(v *Value) {
	v.ID, v.Name, v.Def, v.Parm = int32(f.nextValue), "", nil, nil
	f.nextValue++
}

// AppendInstrs is append(list, more...) for an instruction list of f: when
// f was cloned into an Arena and list is full, the longer list is carved
// from that Arena instead of allocated.
func (f *Function) AppendInstrs(list []*Instr, more ...*Instr) []*Instr {
	return f.arena.AppendInstrs(list, more...)
}

// NewBlock appends a fresh, empty block to the function. The requested name
// is suffixed if another block already carries it: block names label branch
// targets in the printed IR, so duplicates would make the textual form
// ambiguous (Verify rejects them).
func (f *Function) NewBlock(name string) *Block {
	if name == "" {
		name = fmt.Sprintf("b%d", f.nextBlock)
	}
	f.nextBlock++
	taken := make(map[string]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		taken[b.Name] = true
	}
	unique := name
	for i := 2; taken[unique]; i++ {
		unique = fmt.Sprintf("%s%d", name, i)
	}
	b := &Block{Name: unique}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Number gives every block of f, and every value f defines (block
// parameters and instruction results), a dense index in block order, and
// returns how many blocks and values it numbered. A pass that owns f uses
// the indices to keep per-block and per-value tables in slices instead of
// maps. They stay distinct while f only loses blocks and values; after f
// gains any, they mean nothing until the next Number.
//
// Number writes into f, so it must never run on a function that another
// goroutine may read: the compile engine clones shared base functions
// concurrently.
func (f *Function) Number() (blocks, values int) {
	n := int32(0)
	for i, b := range f.Blocks {
		b.num = int32(i)
		for _, p := range b.Params {
			p.num = n
			n++
		}
		for _, in := range b.Instrs {
			if in.Result != nil {
				in.Result.num = n
				n++
			}
		}
	}
	return len(f.Blocks), int(n)
}

// Num returns the block's index from the last Number of its function.
func (b *Block) Num() int { return int(b.num) }

// Num returns the value's index from the last Number of its function.
func (v *Value) Num() int { return int(v.num) }

// NumInstrs returns the total instruction count across all blocks.
func (f *Function) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Calls returns all call instructions in the function in block order.
func (f *Function) Calls() []*Instr {
	var out []*Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == OpCall {
				out = append(out, in)
			}
		}
	}
	return out
}

// Module is a compilation unit: an ordered list of functions plus the
// globals they reference. It corresponds to one translation unit (one
// source file) in the paper's per-file analysis.
type Module struct {
	Name    string
	Globals []string
	Funcs   []*Function

	byName map[string]*Function
}

// NewModule returns an empty module.
func NewModule(name string) *Module {
	return &Module{Name: name, byName: make(map[string]*Function)}
}

// AddFunc appends a function to the module. It panics on duplicate names;
// module construction is programmer-controlled, so a duplicate is a bug.
func (m *Module) AddFunc(f *Function) {
	if m.byName == nil {
		m.byName = make(map[string]*Function)
	}
	if _, dup := m.byName[f.Name]; dup {
		panic("ir: duplicate function " + f.Name)
	}
	m.Funcs = append(m.Funcs, f)
	m.byName[f.Name] = f
}

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Function {
	return m.byName[name]
}

// RemoveFunc deletes the named function from the module.
func (m *Module) RemoveFunc(name string) {
	if _, ok := m.byName[name]; !ok {
		return
	}
	delete(m.byName, name)
	for i, f := range m.Funcs {
		if f.Name == name {
			m.Funcs = append(m.Funcs[:i], m.Funcs[i+1:]...)
			break
		}
	}
}

// AddGlobal registers a global variable name (idempotent).
func (m *Module) AddGlobal(name string) {
	for _, g := range m.Globals {
		if g == name {
			return
		}
	}
	m.Globals = append(m.Globals, name)
}

// NumInstrs returns the total instruction count across all functions.
func (m *Module) NumInstrs() int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// MaxSite returns the largest call-site ID present in the module.
func (m *Module) MaxSite() int {
	max := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == OpCall && in.Site > max {
					max = in.Site
				}
			}
		}
	}
	return max
}

// AssignSites gives every call instruction that does not yet have a site ID
// a fresh, stable one (1-based). It returns the number of sites assigned.
func (m *Module) AssignSites() int {
	next := m.MaxSite() + 1
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == OpCall && in.Site == 0 {
					in.Site = next
					next++
					n++
				}
			}
		}
	}
	return n
}
