package server

import (
	"bytes"
	"net/http"
	"testing"
)

// TestCheckedServerByteIdentical replays one request script against a
// default server and a Config{Check: true} server — the reference
// evaluator: checked compilers, interprocedural summaries from scratch, and
// /link queries answered by cold links — and requires byte-identical
// bodies at every step. /stats then shows which engines answered on each
// side.
func TestCheckedServerByteIdentical(t *testing.T) {
	type step struct {
		name, path string
		body       any
	}
	var script []step
	for _, f := range exampleSources(t) {
		for _, mode := range []string{"none", "os", "tune", "optimal"} {
			script = append(script, step{f.name + " compile " + mode, "/compile",
				CompileRequest{Name: f.name, Source: f.src, Inline: mode, Rounds: 2}})
		}
		script = append(script,
			step{f.name + " search", "/search", SearchRequest{Name: f.name, Source: f.src}},
			step{f.name + " tune size", "/tune", TuneRequest{Name: f.name, Source: f.src, Init: "os", Rounds: 3}},
			step{f.name + " tune weighted", "/tune", TuneRequest{Name: f.name, Source: f.src, Rounds: 3,
				Objective: "weighted", Lambda: 0.1}},
			step{f.name + " analyze", "/analyze", AnalyzeRequest{Name: f.name, Source: f.src}},
		)
	}
	units := linkedUnits(t, "app.minc", "mathlib.minc")
	edited := LinkUnit{Name: "mathlib.minc", Source: linkedSource(t, "mathlib_edit1.minc")}
	script = append(script,
		step{"link create", "/link", LinkCreateRequest{ID: "s", Units: units, DupPolicy: "rename"}},
		step{"link search", "/link/s/search", LinkSearchRequest{}},
		step{"link patch", "/link/s/patch", LinkPatchRequest{Unit: edited}},
		step{"link search after patch", "/link/s/search", LinkSearchRequest{}},
		step{"link tune after patch", "/link/s/tune", LinkTuneRequest{Init: "os", Rounds: 3}},
	)

	_, fast := newTestServer(t, Config{Jobs: 2})
	_, ref := newTestServer(t, Config{Jobs: 2, Check: true})
	for _, st := range script {
		fs, fb := post(t, fast.URL+st.path, st.body)
		rs, rb := post(t, ref.URL+st.path, st.body)
		if fs != http.StatusOK || rs != http.StatusOK {
			t.Fatalf("%s: status default %d, checked %d:\n%s\n%s", st.name, fs, rs, fb, rb)
		}
		if !bytes.Equal(fb, rb) {
			t.Errorf("%s: bodies differ:\n  default: %s\n  checked: %s", st.name, fb, rb)
		}
	}

	fst, rst := getStats(t, fast.URL), getStats(t, ref.URL)
	if fst.SummaryCache.Misses == 0 || rst.SummaryCache != (SummaryCacheCounters{}) {
		t.Errorf("summary cache: default %+v, checked %+v (want used, unused)", fst.SummaryCache, rst.SummaryCache)
	}
	if fst.RelinkCache.Misses == 0 || rst.RelinkCache != (RelinkCacheCounters{}) {
		t.Errorf("relink cache: default %+v, checked %+v (want used, unused)", fst.RelinkCache, rst.RelinkCache)
	}
	if fst.Delta.Evals == 0 || rst.Delta.Evals != 0 {
		t.Errorf("engines: default delta %+v, checked delta %+v", fst.Delta, rst.Delta)
	}
	if fst.Prune != (PruneCounters{}) || rst.Prune != (PruneCounters{}) {
		t.Errorf("prune counters: default %+v, checked %+v (want zero)", fst.Prune, rst.Prune)
	}
	if fst.CyclePricers.Repricings == 0 || rst.CyclePricers.Repricings != 0 || rst.CyclePricers.FullEvals == 0 {
		t.Errorf("cycle pricers: default %+v, checked %+v", fst.CyclePricers, rst.CyclePricers)
	}

	// Replaying a weighted request reuses its pooled profile and pricer.
	f := exampleSources(t)[0]
	built := fst.CyclePricers.Built
	if status, body := post(t, fast.URL+"/tune", TuneRequest{Name: f.name, Source: f.src, Rounds: 3,
		Objective: "weighted", Lambda: 0.1}); status != http.StatusOK {
		t.Fatalf("replay: status %d: %s", status, body)
	}
	if st := getStats(t, fast.URL); st.CyclePricers.Hits == 0 || st.CyclePricers.Built != built {
		t.Errorf("replay: pricer pool hits %d, built %d -> %d", st.CyclePricers.Hits, built, st.CyclePricers.Built)
	}
}
