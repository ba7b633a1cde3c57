// Package codegen lowers IR to a byte-encoded toy instruction set and
// measures code size. It plays the role of the paper's ".text section size"
// metric: deterministic, workload-independent, additive per function, and
// sensitive to exactly the effects inlining has — call sequences cost bytes,
// constants encode with variable length, and removed instructions shrink
// the section.
//
// Two targets are provided. TargetX86 models a CISC encoding where call
// sequences are comparatively expensive, so inlining small callees often
// pays. TargetWASM models a compact stack-machine encoding where calls are
// cheap and code duplication is comparatively expensive, reproducing the
// paper's SQLite/WASM observation that LLVM's inlining heuristic inflates
// WASM binaries.
package codegen

import (
	"fmt"

	"optinline/internal/ir"
)

// Target selects an encoding cost model.
type Target uint8

// Supported targets.
const (
	TargetX86 Target = iota
	TargetWASM
)

func (t Target) String() string {
	if t == TargetWASM {
		return "wasm"
	}
	return "x86"
}

// ParseTarget returns the target String names: "x86" or "wasm". The empty
// name selects the default, x86. Every CLI's -target flag and the daemon's
// target field parse through it, so all of them accept the same names.
func ParseTarget(name string) (Target, error) {
	switch name {
	case "", "x86":
		return TargetX86, nil
	case "wasm":
		return TargetWASM, nil
	}
	return TargetX86, fmt.Errorf("unknown target %q", name)
}

// costModel holds per-target encoding byte costs.
type costModel struct {
	prologue int // function entry sequence
	perParam int // per incoming parameter (frame moves)
	epilogue int // charged once per ret
	binOp    int
	divOp    int // div/mod encode longer
	unOp     int
	callBase int // call opcode + target
	callArg  int // per argument move
	globalOp int // loadg/storeg
	outputOp int // runtime call sequence
	br       int
	condBr   int
	ret      int
	succArg  int // per branch argument (register shuffle / local set)
	constOp  int // opcode part of a constant load; immediate is extra
	align    int // function size is rounded up to this many bytes
}

var models = map[Target]costModel{
	TargetX86: {
		// Call sequences are expensive (argument moves, the call itself,
		// result move) and functions carry frame overhead — the economics
		// that make -Os inlining profitable on CISC targets.
		prologue: 6, perParam: 2, epilogue: 2,
		binOp: 3, divOp: 6, unOp: 2,
		callBase: 8, callArg: 3,
		globalOp: 6, outputOp: 8,
		br: 2, condBr: 5, ret: 1, succArg: 2,
		constOp: 2, align: 4,
	},
	TargetWASM: {
		prologue: 2, perParam: 1, epilogue: 0,
		binOp: 4, divOp: 5, unOp: 3,
		callBase: 3, callArg: 1,
		globalOp: 4, outputOp: 5,
		br: 3, condBr: 4, ret: 1, succArg: 3,
		constOp: 1, align: 1,
	},
}

// immBytes returns the variable-length encoding size of an immediate.
func immBytes(c int64) int {
	switch {
	case c >= -128 && c < 128:
		return 1
	case c >= -32768 && c < 32768:
		return 2
	case c >= -(1<<31) && c < 1<<31:
		return 4
	default:
		return 8
	}
}

// InstrSize returns the encoded size in bytes of a single instruction.
func InstrSize(in *ir.Instr, t Target) int {
	m := models[t]
	switch in.Op {
	case ir.OpConst:
		return m.constOp + immBytes(in.Const)
	case ir.OpBin:
		if in.BinOp == ir.Div || in.BinOp == ir.Mod {
			return m.divOp
		}
		return m.binOp
	case ir.OpUn:
		return m.unOp
	case ir.OpCall:
		return m.callBase + m.callArg*len(in.Args)
	case ir.OpLoadG, ir.OpStoreG:
		return m.globalOp
	case ir.OpOutput:
		return m.outputOp
	case ir.OpBr:
		return m.br + m.succArg*len(in.Succs[0].Args)
	case ir.OpCondBr:
		return m.condBr + m.succArg*(len(in.Succs[0].Args)+len(in.Succs[1].Args))
	case ir.OpRet:
		return m.ret + m.epilogue
	}
	return 0
}

// FunctionSize returns the encoded size in bytes of one function.
func FunctionSize(f *ir.Function, t Target) int {
	m := models[t]
	size := m.prologue + m.perParam*f.NumParams()
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			size += InstrSize(in, t)
		}
	}
	if m.align > 1 {
		if rem := size % m.align; rem != 0 {
			size += m.align - rem
		}
	}
	return size
}

// ModuleSize returns the total .text size of the module: the sum of its
// function sizes. Additivity per function is a deliberate property — it is
// what makes the paper's independent-component argument exact here.
func ModuleSize(m *ir.Module, t Target) int {
	size := 0
	for _, f := range m.Funcs {
		size += FunctionSize(f, t)
	}
	return size
}

// SizeOf returns a function-size lookup for the interpreter's i-cache model.
func SizeOf(m *ir.Module, t Target) func(name string) int {
	sizes := make(map[string]int, len(m.Funcs))
	for _, f := range m.Funcs {
		sizes[f.Name] = FunctionSize(f, t)
	}
	return func(name string) int {
		if s, ok := sizes[name]; ok {
			return s
		}
		return 64 // nominal size for external functions
	}
}

// Listing renders a pseudo-assembly listing with per-instruction and
// per-function byte sizes; used by cmd/mincc -S.
func Listing(m *ir.Module, t Target) string {
	out := fmt.Sprintf("; target %s, .text %d bytes\n", t, ModuleSize(m, t))
	for _, f := range m.Funcs {
		out += fmt.Sprintf("\n%s:  ; %d bytes%s\n", f.Name, FunctionSize(f, t), exportTag(f))
		for _, b := range f.Blocks {
			out += fmt.Sprintf(".%s:\n", b.Name)
			for _, in := range b.Instrs {
				out += fmt.Sprintf("  %-28s ; %d\n", asmText(in), InstrSize(in, t))
			}
		}
	}
	return out
}

func exportTag(f *ir.Function) string {
	if f.Exported {
		return " (export)"
	}
	return ""
}

func asmText(in *ir.Instr) string {
	switch in.Op {
	case ir.OpConst:
		return fmt.Sprintf("mov   %s, #%d", in.Result, in.Const)
	case ir.OpBin:
		return fmt.Sprintf("%-5s %s, %s, %s", in.BinOp, in.Result, in.Args[0], in.Args[1])
	case ir.OpUn:
		return fmt.Sprintf("%-5s %s, %s", in.UnOp, in.Result, in.Args[0])
	case ir.OpCall:
		return fmt.Sprintf("call  %s = @%s/%d", in.Result, in.Callee, len(in.Args))
	case ir.OpLoadG:
		return fmt.Sprintf("ldg   %s, @%s", in.Result, in.Global)
	case ir.OpStoreG:
		return fmt.Sprintf("stg   @%s, %s", in.Global, in.Args[0])
	case ir.OpOutput:
		return fmt.Sprintf("out   %s", in.Args[0])
	case ir.OpBr:
		return fmt.Sprintf("jmp   .%s", in.Succs[0].Dest.Name)
	case ir.OpCondBr:
		return fmt.Sprintf("jnz   %s, .%s, .%s", in.Args[0], in.Succs[0].Dest.Name, in.Succs[1].Dest.Name)
	case ir.OpRet:
		return fmt.Sprintf("ret   %s", in.Args[0])
	}
	return "<invalid>"
}
