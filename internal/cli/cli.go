// Package cli is the front door the optinline binaries share: the flag
// groups several of them declare, loading their input units, CPU and heap
// profiling, the per-function content cache, the end-of-run stats lines on
// stderr, and the -relink edit-script driver (replay.go).
//
// A binary creates its Flags with New, registers the groups it has with
// the Add methods next to its own flags, parses, and brackets its work with
// Start and Finish. Each group keeps the binary's own default where the
// binaries differ; a group a binary does not register keeps the default
// the -relink driver uses.
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/ir"
	"optinline/internal/link"
	"optinline/internal/source"
)

// Flags holds the values of the shared flag groups.
type Flags struct {
	Target   codegen.Target // -target, parsed by Start
	Jobs     int            // -jobs; Start turns 0 into GOMAXPROCS
	Check    bool           // -check: the reference evaluator
	CacheDir string         // -cache-dir
	MaxSpace uint64         // -max-space
	Rounds   int            // -rounds
	Inits    []Init         // -init, parsed by Start
	Link     bool           // -link
	Dup      link.DupPolicy // -link-dup, parsed by Start
	Relink   string         // -relink: the edit script

	// FnCache is the per-function content cache Start opens for binaries
	// with -cache-dir: persistent under it, in memory otherwise.
	FnCache *compile.FnCache

	name                   string
	fs                     *flag.FlagSet
	target, dup, init      string
	cpuProfile, memProfile string
	cpuFile                *os.File
}

// New returns the shared flags of the binary name, to be registered on fs.
func New(name string, fs *flag.FlagSet) *Flags {
	return &Flags{name: name, fs: fs, MaxSpace: 1 << 20, Rounds: 4, init: "both"}
}

// AddTarget registers -target, the codegen size model.
func (f *Flags) AddTarget() {
	f.fs.StringVar(&f.target, "target", "x86", "size model: x86|wasm")
}

// AddJobs registers -jobs with the binary's default and meaning.
func (f *Flags) AddJobs(def int, usage string) { f.fs.IntVar(&f.Jobs, "jobs", def, usage) }

// AddCheck registers -check, the reference evaluator.
func (f *Flags) AddCheck(usage string) { f.fs.BoolVar(&f.Check, "check", false, usage) }

// AddCacheDir registers -cache-dir.
func (f *Flags) AddCacheDir() {
	f.fs.StringVar(&f.CacheDir, "cache-dir", "", "persist the per-function content cache in this directory")
}

// AddProfile registers -cpuprofile and -memprofile.
func (f *Flags) AddProfile() {
	f.fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	f.fs.StringVar(&f.memProfile, "memprofile", "", "write a heap profile to this file at exit")
}

// AddMaxSpace registers -max-space with the binary's default and meaning.
func (f *Flags) AddMaxSpace(def uint64, usage string) {
	f.fs.Uint64Var(&f.MaxSpace, "max-space", def, usage)
}

// AddRounds registers -rounds, the autotuner's round count.
func (f *Flags) AddRounds(def int, usage string) { f.fs.IntVar(&f.Rounds, "rounds", def, usage) }

// AddInit registers -init, the autotuner's starting configurations.
func (f *Flags) AddInit() {
	f.fs.StringVar(&f.init, "init", "both", "starting point: clean|os|both")
}

// AddLink registers -link, with the given meaning, and -link-dup. A binary
// with -link takes several unit files, one file otherwise.
func (f *Flags) AddLink(usage string) {
	f.fs.BoolVar(&f.Link, "link", false, usage)
	f.fs.StringVar(&f.dup, "link-dup", "error", "with -link: duplicate exported symbol policy: error|rename")
}

// AddRelink registers -relink, the edit-script replay (see Replay).
func (f *Flags) AddRelink() {
	f.fs.StringVar(&f.Relink, "relink", "", "with -link: replay an edit script against an incremental session")
}

// Start validates the parsed flags and begins the run. It rejects unknown
// -target, -link-dup and -init names and a wrong file count before any
// work, starts CPU profiling and opens the content cache. A binary whose
// Start succeeded defers Finish.
func (f *Flags) Start() error {
	var err error
	if f.Target, err = codegen.ParseTarget(f.target); err != nil {
		return fmt.Errorf("-target: %w", err)
	}
	if f.Dup, err = link.ParseDupPolicy(f.dup); err != nil {
		return fmt.Errorf("-link-dup: %w", err)
	}
	if f.Inits, err = parseInits(f.init); err != nil {
		return fmt.Errorf("-init: %w", err)
	}
	if f.Jobs == 0 {
		f.Jobs = runtime.GOMAXPROCS(0)
	}
	if f.fs.Lookup("link") != nil {
		switch {
		case f.Relink != "" && f.fs.NArg() == 0:
			return fmt.Errorf("usage: %s -relink script [flags] a.minc b.minc ...", f.name)
		case f.Link && f.fs.NArg() == 0:
			return fmt.Errorf("usage: %s -link [flags] a.minc b.minc ...", f.name)
		case !f.Link && f.Relink == "" && f.fs.NArg() != 1:
			return fmt.Errorf("usage: %s [flags] file.minc", f.name)
		}
	}
	if f.cpuProfile != "" {
		if f.cpuFile, err = os.Create(f.cpuProfile); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f.cpuFile); err != nil {
			f.cpuFile.Close()
			f.cpuFile = nil
			return fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if f.fs.Lookup("cache-dir") != nil {
		if f.FnCache, err = compile.OpenFnCache(f.CacheDir); err != nil {
			f.stopCPUProfile() // the open error is the one to report
			return err
		}
	}
	return nil
}

// Finish ends the run: it saves and closes the content cache and prints
// its counters, writes the heap profile and stops CPU profiling.
func (f *Flags) Finish() {
	if f.FnCache != nil {
		if err := f.FnCache.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", f.name, err)
		}
		Stat("fn content cache", f.FnCache.Stats())
	}
	if f.memProfile != "" {
		if err := writeHeapProfile(f.memProfile); err != nil {
			fmt.Fprintf(os.Stderr, "%s: -memprofile: %v\n", f.name, err)
		}
	}
	if err := f.stopCPUProfile(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: -cpuprofile: %v\n", f.name, err)
	}
}

func (f *Flags) stopCPUProfile() error {
	if f.cpuFile == nil {
		return nil
	}
	pprof.StopCPUProfile()
	return f.cpuFile.Close()
}

func writeHeapProfile(path string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// CompileOptions returns the compiler options the flags select.
func (f *Flags) CompileOptions() compile.Options {
	return compile.Options{Check: f.Check, FnCache: f.FnCache}
}

// ShardOptions returns the linked-query options the flags select.
func (f *Flags) ShardOptions() link.ShardOptions {
	return link.ShardOptions{Target: f.Target, Compile: f.CompileOptions(), Workers: f.Jobs}
}

// Units returns the argument files as lazily loaded link units named by
// their paths.
func (f *Flags) Units() []link.TU {
	tus := make([]link.TU, 0, f.fs.NArg())
	for _, path := range f.fs.Args() {
		tus = append(tus, unit(path, path))
	}
	return tus
}

// unit returns the MinC or IR file at path as a link unit named name.
func unit(name, path string) link.TU {
	return link.LazyTU(name, func() (*ir.Module, error) { return source.Load(path) })
}

// Stat prints one end-of-run counter on stderr as "label: value". Every
// binary's stats lines go through it, so they share one form.
func Stat(label string, value any) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", label, value)
}
