package search

import (
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/ir"
	"optinline/internal/workload"
)

// searchCorpusCap is perfbench's exhaustive-search cap for search-corpus.
const searchCorpusCap = 1 << 14

// BenchmarkSearchCorpus runs one cold pass of the search-corpus workload in
// process: search.Optimal with Workers 1 over every SPEC-like file with
// candidate sites whose recursive space fits 2^14 (the files perfbench's
// search-corpus sends, before its seeded constant edits), each on a fresh
// compiler, all sharing one fresh FnCache as one cold daemon pass does.
// ns/op, B/op and allocs/op are per pass; profile it with -cpuprofile or
// -memprofile to split a request's cost by layer without HTTP.
func BenchmarkSearchCorpus(b *testing.B) {
	var mods []*ir.Module
	for _, p := range workload.SPECProfiles() {
		for _, f := range workload.Generate(p).Files {
			g := callgraph.Build(f.Module)
			if len(g.Edges) == 0 {
				continue
			}
			if _, over := RecursiveSpaceSize(g, searchCorpusCap); !over {
				mods = append(mods, f.Module)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fc := compile.NewFnCache()
		for _, m := range mods {
			c := compile.NewWithOptions(m, codegen.TargetX86, compile.Options{FnCache: fc})
			if _, ok := Optimal(c, Options{Workers: 1, MaxSpace: searchCorpusCap}); !ok {
				b.Fatalf("%s: space over the cap", m.Name)
			}
		}
	}
	b.ReportMetric(float64(len(mods)), "files/op")
}
