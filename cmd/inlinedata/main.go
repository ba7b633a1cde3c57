// Command inlinedata generates machine-learning training data for inlining
// policies, realizing the paper's Section 6 proposal: exhaustive optimal
// search as a scalable generator of *optimal* decision labels ("Good
// training data is necessary and critical to enable such research").
//
// For every exhaustively searchable file (given .minc/.ir files, or the
// synthetic corpus when no files are given) it emits one CSV row per
// inlinable, non-recursive call site: the call-site features followed by
// the optimal label.
//
// Usage:
//
//	inlinedata [flags] [file.minc ...]
//
//	-scale F      synthetic corpus scale when no files are given (default 0.5)
//	-max-space N  skip files whose recursive space exceeds N (default 2^14)
//	-train        also train/evaluate a logistic model on the dump (report to stderr)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"optinline/internal/cli"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/mlheur"
	"optinline/internal/search"
	"optinline/internal/source"
	"optinline/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "inlinedata:", err)
		os.Exit(1)
	}
}

func run() error {
	scale := flag.Float64("scale", 0.5, "synthetic corpus scale when no files are given")
	train := flag.Bool("train", false, "train and evaluate a logistic model on the dump")
	f := cli.New("inlinedata", flag.CommandLine)
	f.AddMaxSpace(1<<14, "skip files with recursive space above this")
	flag.Parse()

	var files []workload.File
	if flag.NArg() > 0 {
		for _, path := range flag.Args() {
			m, err := source.Load(path)
			if err != nil {
				return err
			}
			files = append(files, workload.File{Name: path, Module: m})
		}
	} else {
		for _, p := range workload.SPECProfiles() {
			p.Files = int(float64(p.Files)**scale) + 1
			p.TotalEdges = int(float64(p.TotalEdges)**scale) + 1
			files = append(files, workload.Generate(p).Files...)
		}
	}

	header := append([]string{"file", "site"}, mlheur.FeatureNames[:]...)
	header = append(header, "optimal_inline")
	fmt.Println(strings.Join(header, ","))

	var examples []mlheur.Example
	dumped, skipped := 0, 0
	for _, file := range files {
		comp := compile.New(file.Module, codegen.TargetX86)
		g := comp.Graph()
		if len(g.Edges) == 0 {
			continue
		}
		res, ok := search.Optimal(comp, search.Options{MaxSpace: f.MaxSpace})
		if !ok {
			skipped++
			continue
		}
		// One summary analysis per file; each edge's features are then a
		// table lookup instead of a whole-module reanalysis.
		extractor := mlheur.NewExtractor(comp.Module(), g, nil)
		for _, e := range g.Edges {
			if e.Recursive {
				continue
			}
			x := extractor.Extract(e)
			row := make([]string, 0, len(header))
			row = append(row, file.Name, fmt.Sprint(e.Site))
			for _, v := range x {
				row = append(row, trimFloat(v))
			}
			label := "0"
			inline := res.Config.Inline(e.Site)
			if inline {
				label = "1"
			}
			row = append(row, label)
			fmt.Println(strings.Join(row, ","))
			examples = append(examples, mlheur.Example{X: x, Inline: inline})
			dumped++
		}
	}
	fmt.Fprintf(os.Stderr, "dumped %d decisions from %d files (%d skipped: space too large)\n",
		dumped, len(files), skipped)

	if *train && len(examples) > 0 {
		model, err := mlheur.Train(examples, mlheur.TrainOptions{})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trained logistic model: accuracy %.1f%% (majority %.1f%%)\n",
			model.Accuracy(examples)*100, mlheur.MajorityBaseline(examples)*100)
		for j, name := range mlheur.FeatureNames {
			fmt.Fprintf(os.Stderr, "  %-24s %+0.3f\n", name, model.W[j])
		}
	}
	return nil
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}
