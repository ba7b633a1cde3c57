package experiments

import (
	"strings"
	"testing"
)

// smallHarness builds a scaled-down corpus shared by the tests in this file.
var harnessCache *Harness

func smallHarness(t *testing.T) *Harness {
	t.Helper()
	if harnessCache == nil {
		harnessCache = NewHarness(Config{Scale: 0.3, ExhaustiveCap: 1 << 10, Rounds: 2})
	}
	return harnessCache
}

func TestHarnessBuildsCorpus(t *testing.T) {
	h := smallHarness(t)
	if len(h.Benchmarks()) != 20 {
		t.Fatalf("benchmarks=%d", len(h.Benchmarks()))
	}
	if len(h.Files()) == 0 {
		t.Fatal("no non-trivial files")
	}
	for _, fd := range h.Files() {
		if fd.edges == 0 {
			t.Fatalf("%s: trivial file leaked into non-trivial set", fd.file.Name)
		}
		if fd.noInlineSize <= 0 || fd.heurSize <= 0 {
			t.Fatalf("%s: sizes not positive", fd.file.Name)
		}
	}
}

func TestInliningHelpsOverall(t *testing.T) {
	// Figure 1's premise: the heuristic's inlining shrinks the corpus
	// overall relative to no inlining.
	h := smallHarness(t)
	var off, on float64
	for _, fd := range h.Files() {
		off += float64(fd.noInlineSize)
		on += float64(fd.heurSize)
	}
	if on >= off {
		t.Fatalf("heuristic inlining did not shrink the corpus: %0.f -> %0.f", off, on)
	}
}

func TestExhaustiveSetNonEmptyAndOptimalHolds(t *testing.T) {
	h := smallHarness(t)
	set := h.exhaustiveSet()
	if len(set) == 0 {
		t.Fatal("no exhaustively searchable files at this scale")
	}
	for _, fd := range set {
		opt, ok := fd.optimal(h.cfg)
		if !ok {
			t.Fatalf("%s: optimal not computed", fd.file.Name)
		}
		if opt.Size > fd.heurSize || opt.Size > fd.noInlineSize {
			t.Fatalf("%s: optimum %d worse than heuristic %d / no-inline %d",
				fd.file.Name, opt.Size, fd.heurSize, fd.noInlineSize)
		}
	}
}

func TestTunerSizesBounded(t *testing.T) {
	h := smallHarness(t)
	h.ensureTuned()
	for _, fd := range h.Files() {
		if fd.clean.Size > fd.clean.InitSize {
			t.Fatalf("%s: clean tuning made it worse", fd.file.Name)
		}
		if fd.init.Size > fd.init.InitSize {
			t.Fatalf("%s: initialized tuning made it worse", fd.file.Name)
		}
		if fd.init.InitSize != fd.heurSize {
			t.Fatalf("%s: init size %d != heuristic size %d", fd.file.Name, fd.init.InitSize, fd.heurSize)
		}
	}
}

func TestTunerBeatsHeuristicOnExhaustiveSet(t *testing.T) {
	// Figure 16's headline: the combined autotuner finds the optimum more
	// often than the heuristic.
	h := smallHarness(t)
	set := h.exhaustiveSet()
	h.ensureTuned()
	tuner, heur := 0, 0
	for _, fd := range set {
		opt, _ := fd.optimal(h.cfg)
		if mini(roundSize(fd.clean, 1), roundSize(fd.init, 1)) <= opt.Size {
			tuner++
		}
		if fd.heurSize <= opt.Size {
			heur++
		}
	}
	if tuner < heur {
		t.Fatalf("autotuner optimal count %d < heuristic %d", tuner, heur)
	}
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep is slow")
	}
	h := smallHarness(t)
	for _, id := range IDs() {
		if id == "llvm-case" || id == "sqlite-case" {
			continue // exercised separately with tighter scaling
		}
		res, err := h.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.ID != id || strings.TrimSpace(res.Text) == "" {
			t.Fatalf("%s: empty result", id)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	h := smallHarness(t)
	if _, err := h.Run("fig999"); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestCaseStudiesScaled(t *testing.T) {
	if testing.Short() {
		t.Skip("case studies are slow")
	}
	h := NewHarness(Config{Scale: 0.08, Rounds: 2, ExhaustiveCap: 1 << 8})
	for _, id := range []string{"llvm-case", "sqlite-case"} {
		res, err := h.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(res.Text, "%") {
			t.Fatalf("%s: no percentages in output:\n%s", id, res.Text)
		}
	}
}

// TestCaseStudiesUseHarnessCompilers: llvm-case and sqlite-case build
// their compilers from the harness's compile options, so a default run
// prices through the harness's shared content cache (the one -cache-dir
// persists), and a Checked run is the reference evaluator: it compiles
// every configuration fresh, never consults the cache, and prints the same
// text.
func TestCaseStudiesUseHarnessCompilers(t *testing.T) {
	if testing.Short() {
		t.Skip("case studies are slow")
	}
	texts := map[bool]string{}
	for _, checked := range []bool{false, true} {
		h := NewHarness(Config{Scale: 0.05, Rounds: 2, Checked: checked})
		before := h.FnCache().Stats()
		for _, id := range []string{"sqlite-case", "llvm-case"} {
			res, err := h.Run(id)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			texts[checked] += res.Text
		}
		after := h.FnCache().Stats()
		lookups := after.Hits + after.Misses - before.Hits - before.Misses
		if checked && lookups != 0 {
			t.Errorf("checked case studies made %d content-cache lookups", lookups)
		}
		if !checked && lookups == 0 {
			t.Error("case studies bypassed the harness's shared content cache")
		}
	}
	if texts[false] != texts[true] {
		t.Errorf("checked case studies differ from default:\n--- default\n%s--- checked\n%s", texts[false], texts[true])
	}
}

func TestRoundHelpers(t *testing.T) {
	h := smallHarness(t)
	h.ensureTuned()
	for _, fd := range h.Files()[:minInt(5, len(h.Files()))] {
		if bestUpTo(fd.clean, 1) > fd.clean.InitSize {
			t.Fatal("bestUpTo exceeded init")
		}
		if bestUpTo(fd.clean, 99) != mini(fd.clean.Size, fd.clean.InitSize) {
			t.Fatal("bestUpTo(all) should equal overall best")
		}
		if roundSize(fd.clean, 1) != fd.clean.Rounds[0].Size {
			t.Fatal("roundSize(1) mismatch")
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestExperimentsDeterministic(t *testing.T) {
	// Two independently built harnesses must render byte-identical results
	// (catches map-iteration nondeterminism anywhere in the pipeline).
	cfg := Config{Scale: 0.15, ExhaustiveCap: 1 << 8, Rounds: 1}
	h1 := NewHarness(cfg)
	h2 := NewHarness(cfg)
	for _, id := range []string{"fig1", "fig3", "tab1", "fig7", "tab2", "fig9"} {
		r1, err1 := h1.Run(id)
		r2, err2 := h2.Run(id)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v %v", id, err1, err2)
		}
		if r1.Text != r2.Text {
			t.Fatalf("%s differs across harnesses:\n--- a ---\n%s\n--- b ---\n%s", id, r1.Text, r2.Text)
		}
	}
}
