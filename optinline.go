// Package optinline is the public face of the optimal-function-inlining
// toolkit, a reproduction of "Understanding and Exploiting Optimal Function
// Inlining" (Theodoridis, Grosser, Su — ASPLOS 2022).
//
// It compiles MinC source (or textual IR) to an internal SSA representation
// and exposes the paper's machinery over it: a deterministic binary-size
// metric, an LLVM-`-Os`-style inlining heuristic as the baseline, the
// recursively partitioned exhaustive search for *optimal* inlining, and the
// local autotuner that approaches the optimum with n+2 compilations per
// round.
//
// Quick start:
//
//	p, err := optinline.Compile("demo.minc", src)
//	base := p.HeuristicSize()
//	tuned := p.Autotune(optinline.TuneOptions{Rounds: 4})
//	fmt.Printf("-Os %d bytes -> tuned %d bytes\n", base, tuned.Size)
package optinline

import (
	"optinline/internal/autotune"
	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/heuristic"
	"optinline/internal/interp"
	"optinline/internal/search"
	"optinline/internal/source"
)

// Target selects the code-size model.
type Target int

// Available size models. TargetX86 models a CISC encoding with expensive
// call sequences; TargetWASM models a compact stack encoding with cheap
// calls (where eager inlining tends to inflate binaries).
const (
	TargetX86 Target = iota
	TargetWASM
)

func (t Target) internal() codegen.Target {
	if t == TargetWASM {
		return codegen.TargetWASM
	}
	return codegen.TargetX86
}

// Program is a compiled translation unit ready for inlining exploration.
// All methods are safe for concurrent use.
type Program struct {
	comp *compile.Compiler
}

// Compile builds a Program from source text. The filename's extension
// selects the frontend: ".minc" for MinC source, ".ir" for textual IR.
// The X86 size model is used; see CompileFor.
func Compile(filename, src string) (*Program, error) {
	return CompileFor(filename, src, TargetX86)
}

// CompileFor is Compile with an explicit size-model target.
func CompileFor(filename, src string, target Target) (*Program, error) {
	m, err := source.FromBytes(filename, []byte(src))
	if err != nil {
		return nil, err
	}
	return &Program{comp: compile.New(m, target.internal())}, nil
}

// LoadFile reads and compiles a file from disk.
func LoadFile(path string) (*Program, error) {
	m, err := source.Load(path)
	if err != nil {
		return nil, err
	}
	return &Program{comp: compile.New(m, codegen.TargetX86)}, nil
}

// NumCallSites returns the number of inlinable call sites (the paper's
// inlining candidates).
func (p *Program) NumCallSites() int { return len(p.comp.Graph().Edges) }

// NumFunctions returns the number of functions in the unit.
func (p *Program) NumFunctions() int { return len(p.comp.Graph().Nodes) }

// Decisions is an inlining configuration: the paper's assignment of
// {inline, no-inline} to every candidate call site.
type Decisions struct {
	p   *Program
	cfg *callgraph.Config
}

// NoInlining returns the clean-slate configuration (nothing inlined).
func (p *Program) NoInlining() Decisions {
	return Decisions{p: p, cfg: callgraph.NewConfig()}
}

// Heuristic returns the decisions of the built-in LLVM-`-Os`-style
// heuristic — the "state of the art" baseline of the paper.
func (p *Program) Heuristic() Decisions {
	return Decisions{p: p, cfg: heuristic.OsConfig(p.comp.Module(), p.comp.Graph())}
}

// InlinedSites returns the call-site IDs labeled inline, ascending.
func (d Decisions) InlinedSites() []int { return d.cfg.InlineSites() }

// Size compiles the unit under these decisions and returns the .text size
// in bytes. Results are memoized per configuration.
func (d Decisions) Size() int { return d.p.comp.Size(d.cfg) }

// DOT renders the call graph with these decisions in Graphviz syntax
// (solid = inlined, dashed = not), in the style of the paper's figures.
func (d Decisions) DOT(title string) string { return d.p.comp.Graph().DOT(title, d.cfg) }

// NoInlineSize returns the size with inlining disabled.
func (p *Program) NoInlineSize() int { return p.NoInlining().Size() }

// HeuristicSize returns the size under the -Os-style heuristic.
func (p *Program) HeuristicSize() int { return p.Heuristic().Size() }

// SearchSpace describes the size of the inlining search space of the unit.
type SearchSpace struct {
	CallSites     int     // candidate edges; naive space is 2^CallSites
	NaiveLog2     float64 // log2 of the naive space
	Recursive     uint64  // evaluations in the recursively partitioned space
	RecursiveOver bool    // true if Recursive hit the counting cap
}

// Space computes the search-space accounting of Section 3, counting the
// recursively partitioned space up to limit evaluations (0 = unbounded).
func (p *Program) Space(limit uint64) SearchSpace {
	g := p.comp.Graph()
	n, over := search.RecursiveSpaceSize(g, limit)
	return SearchSpace{
		CallSites:     len(g.Edges),
		NaiveLog2:     search.NaiveSpaceLog2(g),
		Recursive:     n,
		RecursiveOver: over,
	}
}

// OptimalResult is the outcome of the exhaustive search.
type OptimalResult struct {
	Decisions   Decisions
	Size        int
	Evaluations int64 // real compilations performed
	SpaceSize   uint64
}

// Optimal exhaustively searches the recursively partitioned space
// (Algorithms 1 and 2 of the paper) and returns an optimal configuration.
// ok is false when the space exceeds maxSpace evaluations (0 = unbounded).
func (p *Program) Optimal(maxSpace uint64) (OptimalResult, bool) {
	res, ok := search.Optimal(p.comp, search.Options{MaxSpace: maxSpace})
	if !ok {
		return OptimalResult{SpaceSize: res.SpaceSize}, false
	}
	return OptimalResult{
		Decisions:   Decisions{p: p, cfg: res.Config},
		Size:        res.Size,
		Evaluations: res.Evaluations,
		SpaceSize:   res.SpaceSize,
	}, true
}

// TuneOptions configures the autotuner.
type TuneOptions struct {
	// Rounds of local tuning; 0 means 1. Each round costs n+2 compilations.
	Rounds int
	// Workers bounds parallel per-edge evaluations; 0 = GOMAXPROCS.
	Workers int
	// Init selects the starting point(s).
	Init InitMode
	// GroupCallees enables the paper's Section 5.2.1 extension: per
	// internal multi-caller callee, additionally test inlining all of its
	// call sites at once (captures group-DCE wins local toggles miss).
	GroupCallees bool
	// Incremental enables the paper's Section 6 scalability extension:
	// rounds after the first only re-tune edges adjacent to the previous
	// round's changes.
	Incremental bool
}

// InitMode selects the autotuner's starting configuration.
type InitMode int

// Autotuner starting points: both (best of the two runs, the paper's
// recommended mode), clean slate only, or heuristic-initialized only.
const (
	InitBoth InitMode = iota
	InitClean
	InitHeuristic
)

// RoundReport mirrors the paper's Table 4 rows.
type RoundReport struct {
	Round      int
	Size       int
	Inlined    int
	NotInlined int
}

// TuneResult is the outcome of an autotuning session.
type TuneResult struct {
	Decisions Decisions
	Size      int
	// Rounds traces the session that produced the best configuration.
	Rounds []RoundReport
	// Compilations is the number of real compilations performed.
	Compilations int64
}

// Autotune runs the paper's local autotuner (Algorithm 3 and variants).
func (p *Program) Autotune(opt TuneOptions) TuneResult {
	opts := autotune.ExtOptions{
		Options:      autotune.Options{Rounds: opt.Rounds, Workers: opt.Workers},
		GroupCallees: opt.GroupCallees,
		Incremental:  opt.Incremental,
	}
	var res autotune.Result
	switch opt.Init {
	case InitClean:
		res = autotune.TuneExtended(p.comp, nil, opts)
	case InitHeuristic:
		res = autotune.TuneExtended(p.comp, p.Heuristic().cfg, opts)
	default:
		res, _, _ = autotune.Combined(p.comp, p.Heuristic().cfg, opts)
	}
	out := TuneResult{
		Decisions:    Decisions{p: p, cfg: res.Config},
		Size:         res.Size,
		Compilations: p.comp.Evaluations(),
	}
	for _, r := range res.Rounds {
		out.Rounds = append(out.Rounds, RoundReport{
			Round: r.Round, Size: r.Size, Inlined: r.Inlined, NotInlined: r.NotInlined,
		})
	}
	return out
}

// RunResult is the observable outcome and cost model of an execution.
type RunResult struct {
	Ret      int64
	Outputs  int
	Steps    int64
	Cycles   int64
	DynCalls int64
}

// Run compiles the unit under the given decisions and interprets the named
// exported function with the cycle model enabled.
func (p *Program) Run(d Decisions, entry string, args ...int64) (RunResult, error) {
	m, err := p.comp.Build(d.cfg)
	if err != nil {
		return RunResult{}, err
	}
	res, err := interp.Run(m, entry, args, interp.Options{
		SizeOf: codegen.SizeOf(m, p.comp.Target()),
	})
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{
		Ret:      res.Ret,
		Outputs:  res.OutputLen,
		Steps:    res.Steps,
		Cycles:   res.Cycles,
		DynCalls: res.DynCalls,
	}, nil
}

// Listing returns the pseudo-assembly listing of the unit compiled under
// the given decisions.
func (p *Program) Listing(d Decisions) (string, error) {
	m, err := p.comp.Build(d.cfg)
	if err != nil {
		return "", err
	}
	return codegen.Listing(m, p.comp.Target()), nil
}

// IR returns the optimized textual IR of the unit under the decisions.
func (p *Program) IR(d Decisions) (string, error) {
	m, err := p.comp.Build(d.cfg)
	if err != nil {
		return "", err
	}
	return m.String(), nil
}
