// Command inlinelint runs the MinC source lints, the IR static-analyzer
// suite, and the interprocedural summary lints over one or more files and
// reports the findings.
//
// For a .minc file it lints the AST (unused locals, unreachable statements,
// use-before-initialization, shadowing) and then lowers it and runs the IR
// analyzers (undefined callees, dead global stores, recursion cycles,
// constant conditions, unreachable blocks, ...). For a .ir file only the IR
// analyzers run. Both kinds additionally get the cross-function lints backed
// by internal/analysis/interproc summaries (dead parameters, unused pure
// results, constant returns, use-before-init through wrappers, unbounded
// recursion); the summary cache is shared across all files of one run.
//
// Usage:
//
//	inlinelint [flags] file.minc [file2.minc ...]
//
//	-json           emit findings as a JSON array instead of text
//	-sarif          emit findings as a SARIF 2.1.0 log instead of text
//	-severity s     only report findings at severity s (info|warning|error)
//	                or above; default info reports everything
//
// Shared flags (see README "Checked mode is the reference" for -check):
//
//	-check          run the reference evaluator: interprocedural summaries
//	                from scratch, plus the checked compilation pipeline over
//	                the no-inline and -Os configurations
//	-target x86|wasm  size model for -check (default x86)
//
// Exit status is 2 on usage or load errors, 1 if any finding of error
// severity (or a checked-mode violation) was reported, 0 otherwise.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"optinline/internal/analysis"
	"optinline/internal/analysis/interproc"
	"optinline/internal/callgraph"
	"optinline/internal/cli"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/diag"
	"optinline/internal/heuristic"
	"optinline/internal/ir"
	"optinline/internal/lang"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("inlinelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	f := cli.New("inlinelint", fs)
	var (
		jsonOut  = fs.Bool("json", false, "emit findings as JSON")
		sarifOut = fs.Bool("sarif", false, "emit findings as SARIF 2.1.0")
		sevName  = fs.String("severity", "info", "minimum severity to report: info|warning|error")
	)
	f.AddCheck("summaries from scratch, and run the checked compilation pipeline as well")
	f.AddTarget()
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if err := f.Start(); err != nil {
		fmt.Fprintln(stderr, "inlinelint:", err)
		return 2
	}
	defer f.Finish()
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: inlinelint [flags] file.minc [file2.minc ...]")
		return 2
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(stderr, "inlinelint: -json and -sarif are mutually exclusive")
		return 2
	}
	var minSev diag.Severity
	switch *sevName {
	case "info":
		minSev = diag.Info
	case "warning":
		minSev = diag.Warning
	case "error":
		minSev = diag.Error
	default:
		fmt.Fprintf(stderr, "inlinelint: unknown severity %q (want info|warning|error)\n", *sevName)
		return 2
	}
	// One summary cache per run: structurally identical functions across
	// the file list share their summary cores. The reference evaluator
	// computes every summary from scratch.
	var ipCache *interproc.Cache
	if !f.Check {
		ipCache = interproc.NewCache()
	}

	var all diag.List
	for _, path := range fs.Args() {
		ds, err := lintOne(path, f.Check, f.Target, ipCache)
		if err != nil {
			fmt.Fprintf(stderr, "inlinelint: %v\n", err)
			return 2
		}
		all = append(all, ds...)
	}
	all = all.MinSeverity(minSev)
	all.Sort()

	switch {
	case *sarifOut:
		data, err := all.SARIF(diag.SARIFOptions{Tool: "inlinelint", RuleDocs: ruleDocs()})
		if err != nil {
			fmt.Fprintf(stderr, "inlinelint: %v\n", err)
			return 2
		}
		fmt.Fprintln(stdout, string(data))
	case *jsonOut:
		data, err := all.JSON()
		if err != nil {
			fmt.Fprintf(stderr, "inlinelint: %v\n", err)
			return 2
		}
		fmt.Fprintln(stdout, string(data))
	default:
		if text := all.Text(); text != "" {
			fmt.Fprint(stdout, text)
		}
	}
	if all.HasErrors() {
		return 1
	}
	return 0
}

// ruleDocs collects the one-line documentation of every registered
// analyzer for the SARIF rules array.
func ruleDocs() map[string]string {
	docs := map[string]string{}
	for _, info := range analysis.Analyzers() {
		docs[info.Name] = info.Doc
	}
	for _, info := range interproc.Analyzers() {
		docs[info.Name] = info.Doc
	}
	return docs
}

// lintOne lints a single file: source lints for .minc, then the IR analyzer
// suite and the interprocedural summary lints, then (with check) the checked
// compilation pipeline.
func lintOne(path string, check bool, target codegen.Target, ipCache *interproc.Cache) (diag.List, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out diag.List
	var mod *ir.Module
	switch filepath.Ext(path) {
	case ".minc":
		prog, err := lang.Parse(path, string(data))
		if err != nil {
			return nil, err
		}
		out = append(out, lang.Lint(path, prog)...)
		mod, err = lang.Lower(path, prog)
		if err != nil {
			return nil, err
		}
	case ".ir":
		mod, err = ir.Parse(path, string(data))
		if err != nil {
			return nil, err
		}
		if err := mod.Verify(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%s: unsupported extension (want .minc or .ir)", path)
	}
	out = append(out, analysis.RunModule(mod, analysis.Options{})...)

	mod.AssignSites()
	g := callgraph.Build(mod)
	ms := interproc.Analyze(mod, g, ipCache)
	out = append(out, interproc.Lints(mod, g, ms)...)

	// Analyzer positions carry the module name; point them at the file path
	// so every finding is uniformly file-addressed.
	for i := range out {
		if out[i].Pos.File == "" || out[i].Pos.File == mod.Name {
			out[i].Pos.File = path
		}
	}

	if check {
		comp := compile.NewWithOptions(mod, target, compile.Options{Check: true})
		cfgs := map[string]*callgraph.Config{
			"no-inline": callgraph.NewConfig(),
			"-Os":       heuristic.OsConfig(comp.Module(), comp.Graph()),
		}
		for name, cfg := range cfgs {
			if _, err := comp.Build(cfg); err != nil {
				out = append(out, diag.Diagnostic{
					Analyzer: "checked-compile",
					Severity: diag.Error,
					Pos:      diag.Pos{File: path},
					Message:  fmt.Sprintf("%s configuration: %v", name, err),
				})
			}
		}
	}
	return out, nil
}
