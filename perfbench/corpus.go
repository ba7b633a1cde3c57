package main

import (
	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/interp"
	"optinline/internal/ir"
	"optinline/internal/search"
	"optinline/internal/workload"
)

// Input generation. The shapes are the repository's own corpora — the
// SPEC-like suite, the LLVM- and SQLite-shaped units and linked-x10 that
// the experiments reproduce the paper on. The seed draws body edits to
// them: seedEdits constant bumps per unit, in functions and by amounts the
// seed picks. Every seed so sends sources no other seed sends, and every
// answer must be computed afresh, while the call graphs, and with them the
// work of a pass, stay put. Drawing the shapes themselves from the seed
// (renaming the generator's profiles) moved the work of a pass by 20-30%
// between seeds, more than any bound a benchmark can use. The daemon only
// ever receives the generated sources.

const (
	// seedEdits is the number of seeded constant bumps per unit.
	seedEdits = 3
	// exhaustiveCap is the batch harness's recursive-space cap; search-corpus
	// keeps the files whose space fits it.
	exhaustiveCap = 1 << 14
	// serveCap keeps serve-edit's searches interactive.
	serveCap = 1 << 10
	// serveScale shrinks the SPEC-like corpus for serve-edit, as
	// inlineload -scale does.
	serveScale = 0.25
	// profileFuel bounds the interpretation behind every cycle objective.
	profileFuel = 2_000_000
	// maxFrameEvents keeps tune-corpus's profiled files to programs whose
	// i-cache replay stays short.
	maxFrameEvents = 80_000
	// weightedLambda weighs cycles against bytes in the weighted objective.
	weightedLambda = 0.1
)

// entryArgs are the arguments every profiled or checked program runs with.
var entryArgs = []int64{7}

// unit is one translation unit as the daemon receives it.
type unit struct {
	name  string     // request name; the .ir extension selects the IR frontend
	mod   *ir.Module // the module
	src   string     // its IR text, sent on the wire
	sites int        // candidate call sites
}

// seeded returns file f after the seed's body edits; i tells the units of
// one corpus apart, so each draws its own edits.
func seeded(f workload.File, seed int64, i int) *unit {
	m := f.Module
	for e := 0; e < seedEdits; e++ {
		m = workload.MutateLinkedTU(m, 3*int(seed*7919+int64(i)*131+int64(e)*17))
	}
	return &unit{name: f.Name + ".ir", mod: m, src: m.String(), sites: len(callgraph.Build(m).Edges)}
}

// edited returns u after MutateLinkedTU's edit number s: kind s%3 == 0
// bumps one constant, kind 1 renames a local function and its calls. Names
// of other functions, their order and the call-site numbering stay.
func edited(u *unit, s int) *unit {
	m := workload.MutateLinkedTU(u.mod, s)
	return &unit{name: u.name, mod: m, src: m.String(), sites: u.sites}
}

// specCorpus returns the seeded SPEC-like suite, every profile scaled by
// scale, cut to the files with candidate sites whose recursive search space
// fits limit.
func specCorpus(seed int64, scale float64, limit uint64) []*unit {
	var out []*unit
	i := 0
	for _, p := range workload.SPECProfiles() {
		p.Files = max(1, int(float64(p.Files)*scale))
		p.TotalEdges = max(1, int(float64(p.TotalEdges)*scale))
		for _, f := range workload.Generate(p).Files {
			i++
			g := callgraph.Build(f.Module)
			if len(g.Edges) == 0 {
				continue
			}
			if _, over := search.RecursiveSpaceSize(g, limit); !over {
				out = append(out, seeded(f, seed, i))
			}
		}
	}
	return out
}

// tuneUnits returns tune-corpus's inputs: the seeded LLVM-lib and SQLite
// stand-ins, and the seeded SPECspeed-subset files the interpreter profiles
// within profileFuel and maxFrameEvents.
func tuneUnits(seed int64) (large, weighted []*unit) {
	files := append(workload.LLVMCodebase().Files, workload.SQLiteAmalgamation())
	for i, f := range files {
		large = append(large, seeded(f, seed, i))
	}
	speed := workload.SPECSpeedSubset()
	i := 0
	for _, p := range workload.SPECProfiles() {
		if !speed[p.Name] {
			continue
		}
		for _, f := range workload.Generate(p).Files {
			i++
			if u := seeded(f, seed, i); u.sites > 0 && profilable(u.mod) {
				weighted = append(weighted, u)
			}
		}
	}
	return large, weighted
}

// profilable reports whether the interpreter finishes the no-inline build's
// entry within profileFuel and maxFrameEvents frame events.
func profilable(m *ir.Module) bool {
	if m.Func("entry") == nil {
		return false
	}
	built, err := compile.New(m, codegen.TargetX86).Build(callgraph.NewConfig())
	if err != nil {
		return false
	}
	_, prof, err := interp.Collect(built, "entry", entryArgs, interp.Options{Fuel: profileFuel})
	return err == nil && len(prof.Events) <= maxFrameEvents
}

// linkedUnits returns the seeded linked-x10 translation units.
func linkedUnits(seed int64) []*unit {
	lp, _ := workload.LinkedProfileByName("linked-x10")
	var out []*unit
	for i, f := range workload.GenerateLinked(lp).Files {
		out = append(out, seeded(f, seed, i))
	}
	return out
}
