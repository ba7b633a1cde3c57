package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// repoRoot makes the test run from the repository root so the file paths
// embedded in diagnostics are stable "testdata/lint/..." strings.
func repoRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join(wd, "..", "..")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

func corpus(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "lint", "*.minc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus files under testdata/lint")
	}
	sort.Strings(files)
	return files
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestLintGoldenText(t *testing.T) {
	repoRoot(t)
	for _, src := range corpus(t) {
		src := src
		t.Run(filepath.Base(src), func(t *testing.T) {
			var out, errOut bytes.Buffer
			code := run([]string{src}, &out, &errOut)
			if errOut.Len() != 0 {
				t.Fatalf("stderr: %s", errOut.String())
			}
			// The corpus is warnings and infos only; error severity would
			// change the exit code and belongs in a different test.
			if code != 0 {
				t.Fatalf("exit code = %d, want 0", code)
			}
			checkGolden(t, strings.TrimSuffix(src, ".minc")+".golden", out.Bytes())
		})
	}
}

func TestLintGoldenJSON(t *testing.T) {
	repoRoot(t)
	for _, src := range corpus(t) {
		src := src
		t.Run(filepath.Base(src), func(t *testing.T) {
			var out, errOut bytes.Buffer
			code := run([]string{"-json", src}, &out, &errOut)
			if errOut.Len() != 0 {
				t.Fatalf("stderr: %s", errOut.String())
			}
			if code != 0 {
				t.Fatalf("exit code = %d, want 0", code)
			}
			checkGolden(t, strings.TrimSuffix(src, ".minc")+".json.golden", out.Bytes())
		})
	}
}

func TestLintCleanHasNoFindings(t *testing.T) {
	repoRoot(t)
	var out, errOut bytes.Buffer
	if code := run([]string{filepath.Join("testdata", "lint", "clean.minc")}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, stderr %s", code, errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean.minc produced findings:\n%s", out.String())
	}
}

func TestLintCheckedModeClean(t *testing.T) {
	repoRoot(t)
	var out, errOut bytes.Buffer
	code := run([]string{"-check", filepath.Join("testdata", "lint", "clean.minc")}, &out, &errOut)
	if code != 0 {
		t.Fatalf("-check exit code = %d, stdout %s stderr %s", code, out.String(), errOut.String())
	}
}

func TestLintUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("no args: exit code = %d, want 2", code)
	}
	if code := run([]string{"does-not-exist.minc"}, &out, &errOut); code != 2 {
		t.Errorf("missing file: exit code = %d, want 2", code)
	}
}

// interprocCorpus returns the interprocedural-lint fixture pairs: each
// lint has one firing fixture and one *_ok false-positive fixture that
// must stay clean of that lint.
func interprocCorpus(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "lint", "interproc", "*.minc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus files under testdata/lint/interproc")
	}
	sort.Strings(files)
	return files
}

func TestInterprocLintGoldenText(t *testing.T) {
	repoRoot(t)
	for _, src := range interprocCorpus(t) {
		src := src
		t.Run(filepath.Base(src), func(t *testing.T) {
			var out, errOut bytes.Buffer
			code := run([]string{src}, &out, &errOut)
			if errOut.Len() != 0 {
				t.Fatalf("stderr: %s", errOut.String())
			}
			if code != 0 {
				t.Fatalf("exit code = %d, want 0", code)
			}
			checkGolden(t, strings.TrimSuffix(src, ".minc")+".golden", out.Bytes())
		})
	}
}

// TestInterprocFiringAndClean pins the contract of the fixture pairs:
// the firing fixture reports its lint, the *_ok twin does not.
func TestInterprocFiringAndClean(t *testing.T) {
	repoRoot(t)
	lints := map[string]string{
		"deadparam":    "ip-dead-param",
		"pureunused":   "pure-call",
		"constreturn":  "ip-const-return",
		"uninitglobal": "ip-uninit-global",
		"mutualrec":    "ip-unbounded-recursion",
	}
	for base, analyzer := range lints {
		for _, variant := range []string{base, base + "_ok"} {
			var out, errOut bytes.Buffer
			src := filepath.Join("testdata", "lint", "interproc", variant+".minc")
			if code := run([]string{src}, &out, &errOut); code != 0 {
				t.Fatalf("%s: exit code = %d, stderr %s", variant, code, errOut.String())
			}
			fired := strings.Contains(out.String(), "["+analyzer+"]")
			if variant == base && !fired {
				t.Errorf("%s must report %s:\n%s", variant, analyzer, out.String())
			}
			if variant != base && fired {
				t.Errorf("%s is a false-positive guard and must stay clean of %s:\n%s",
					variant, analyzer, out.String())
			}
		}
	}
}

// TestSeverityThreshold: -severity filters output and (via the filtered
// list) the exit code; the default reproduces the unfiltered behavior.
func TestSeverityThreshold(t *testing.T) {
	repoRoot(t)
	src := filepath.Join("testdata", "lint", "irdiag.minc")

	var all, dflt bytes.Buffer
	run([]string{src}, &all, &bytes.Buffer{})
	run([]string{"-severity", "info", src}, &dflt, &bytes.Buffer{})
	if all.String() != dflt.String() {
		t.Error("-severity info must match the default output")
	}

	var warn bytes.Buffer
	if code := run([]string{"-severity", "warning", src}, &warn, &bytes.Buffer{}); code != 0 {
		t.Fatalf("-severity warning exit = %d", code)
	}
	if strings.Contains(warn.String(), "info:") {
		t.Errorf("-severity warning leaked infos:\n%s", warn.String())
	}
	if !strings.Contains(warn.String(), "warning:") {
		t.Errorf("-severity warning dropped warnings:\n%s", warn.String())
	}

	// irdiag has warnings but no errors: at the error threshold the run is
	// silent and exits 0 — the form the CI examples gate relies on.
	var errOnly bytes.Buffer
	if code := run([]string{"-severity", "error", src}, &errOnly, &bytes.Buffer{}); code != 0 {
		t.Fatalf("-severity error exit = %d", code)
	}
	if errOnly.Len() != 0 {
		t.Errorf("-severity error must be silent on an error-free file:\n%s", errOnly.String())
	}

	var out, errOut bytes.Buffer
	if code := run([]string{"-severity", "bogus", src}, &out, &errOut); code != 2 {
		t.Errorf("bad severity: exit = %d, want 2", code)
	}
}

func TestSARIFGolden(t *testing.T) {
	repoRoot(t)
	var out, errOut bytes.Buffer
	code := run([]string{"-sarif", filepath.Join("testdata", "lint", "irdiag.minc")}, &out, &errOut)
	if errOut.Len() != 0 || code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	checkGolden(t, filepath.Join("testdata", "lint", "irdiag.sarif.golden"), out.Bytes())

	var both bytes.Buffer
	if code := run([]string{"-sarif", "-json", "x.minc"}, &both, &errOut); code != 2 {
		t.Errorf("-sarif -json together: exit = %d, want 2", code)
	}
}

// TestNoInterprocCacheParity: the cached analyses and the -check reference
// (scratch summaries, plus the checked pipeline, which must add nothing on
// this corpus) must render byte-identical findings over the whole fixture
// corpus in one process (the cache is shared across files, so cross-file
// reuse is exercised).
func TestNoInterprocCacheParity(t *testing.T) {
	repoRoot(t)
	files := interprocCorpus(t)
	files = append(files, corpus(t)...)
	var cached, scratch bytes.Buffer
	ccode := run(files, &cached, &bytes.Buffer{})
	scode := run(append([]string{"-check"}, files...), &scratch, &bytes.Buffer{})
	if ccode != scode || cached.String() != scratch.String() {
		t.Errorf("cached (exit %d) and -check (exit %d) disagree:\n--- cached ---\n%s--- scratch ---\n%s",
			ccode, scode, cached.String(), scratch.String())
	}
}
