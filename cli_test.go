package optinline

// End-to-end tests of the command-line tools, driven through `go run`.
// They are skipped in -short mode (each invocation compiles the tool).

import (
	"bytes"
	"os/exec"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// runCLISplit keeps stdout and stderr apart, for byte-identity assertions
// on stdout while stderr carries run-dependent cache statistics.
func runCLISplit(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = "."
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
	if err := cmd.Run(); err != nil {
		t.Fatalf("go run %v: %v\n%s%s", args, err, outBuf.String(), errBuf.String())
	}
	return outBuf.String(), errBuf.String()
}

func TestMinccCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI test")
	}
	out := runCLI(t, "./cmd/mincc", "-inline", "os", "-run", "trace", "-arg", "4", "testdata/matrixsum.minc")
	for _, want := range []string{"inlinable calls", ".text", "trace([4]) ="} {
		if !strings.Contains(out, want) {
			t.Fatalf("mincc output missing %q:\n%s", want, out)
		}
	}
	// All strategies must report the same program behaviour.
	ret := func(mode string) string {
		o := runCLI(t, "./cmd/mincc", "-inline", mode, "-run", "trace", "-arg", "4", "testdata/matrixsum.minc")
		i := strings.Index(o, "trace([4]) = ")
		if i < 0 {
			t.Fatalf("no run output for %s:\n%s", mode, o)
		}
		return strings.Fields(o[i+len("trace([4]) = "):])[0]
	}
	base := ret("none")
	for _, mode := range []string{"os", "tune", "optimal"} {
		if got := ret(mode); got != base {
			t.Fatalf("mode %s changed behaviour: %s vs %s", mode, got, base)
		}
	}
}

func TestMinccListingAndOutline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI test")
	}
	out := runCLI(t, "./cmd/mincc", "-inline", "tune", "-outline", "-S", "testdata/matrixsum.minc")
	if !strings.Contains(out, "; target x86") {
		t.Fatalf("listing missing:\n%s", out)
	}
}

func TestInlineSearchCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI test")
	}
	out := runCLI(t, "./cmd/inlinesearch", "-dot", "testdata/matrixsum.minc")
	for _, want := range []string{"naive space", "recursively partitioned", "optimal:", "agreement", "digraph"} {
		if !strings.Contains(out, want) {
			t.Fatalf("inlinesearch output missing %q:\n%s", want, out)
		}
	}
}

func TestInlineTuneCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI test")
	}
	out := runCLI(t, "./cmd/inlinetune", "-rounds", "2", "-groups", "-incremental", "testdata/matrixsum.minc")
	for _, want := range []string{"clean slate", "-Os initialized", "final:", "compilations"} {
		if !strings.Contains(out, want) {
			t.Fatalf("inlinetune output missing %q:\n%s", want, out)
		}
	}
}

// TestMinccFnCacheColdVsWarm: a warm -cache-dir rerun and the -check
// reference (which uses no function cache) must produce byte-identical
// stdout; the warm run's content-cache stats line must show that it reused
// the persisted entries.
func TestMinccFnCacheColdVsWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI test")
	}
	dir := t.TempDir()
	argv := func(extra ...string) []string {
		base := []string{"./cmd/mincc", "-inline", "optimal", "-S"}
		return append(append(base, extra...), "testdata/matrixsum.minc")
	}
	oracle, _ := runCLISplit(t, argv("-check")...)
	cold, coldErr := runCLISplit(t, argv("-cache-dir", dir)...)
	warm, warmErr := runCLISplit(t, argv("-cache-dir", dir)...)
	if cold != oracle {
		t.Fatalf("cold fncache stdout differs from -check reference:\n--- reference\n%s--- cold\n%s", oracle, cold)
	}
	if warm != cold {
		t.Fatalf("warm -cache-dir rerun stdout differs from cold run:\n--- cold\n%s--- warm\n%s", cold, warm)
	}
	if !strings.Contains(coldErr, "stored") {
		t.Fatalf("cold run stats never reported a store:\n%s", coldErr)
	}
	if !strings.Contains(warmErr, "loaded") || !strings.Contains(warmErr, "0 misses") {
		t.Fatalf("warm run did not reuse the persisted cache:\n%s", warmErr)
	}
}

// TestCLIsRejectUnknownTarget: an unknown -target name is an error before
// any work, not a silent fallback to the x86 size model.
func TestCLIsRejectUnknownTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI test")
	}
	for _, args := range [][]string{
		{"./cmd/inlinesearch", "-target", "arm", "testdata/matrixsum.minc"},
		{"./cmd/inlinetune", "-target", "WASM", "testdata/matrixsum.minc"},
	} {
		cmd := exec.Command("go", append([]string{"run"}, args...)...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err == nil {
			t.Errorf("go run %v succeeded:\n%s", args, stdout.String())
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "unknown target") {
			t.Errorf("go run %v: want only an unknown-target error, got stdout %q, stderr %q",
				args, stdout.String(), stderr.String())
		}
	}
}

func TestInlineBenchCLIList(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI test")
	}
	out := runCLI(t, "./cmd/inlinebench", "-list")
	for _, want := range []string{"fig1", "fig19", "tab4", "sqlite-case", "mlgo-case"} {
		if !strings.Contains(out, want) {
			t.Fatalf("inlinebench -list missing %q:\n%s", want, out)
		}
	}
}

func TestInlineBenchCLISingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI test")
	}
	out := runCLI(t, "./cmd/inlinebench", "-exp", "fig3", "-scale", "0.15")
	if !strings.Contains(out, "log2") || !strings.Contains(out, "parest") {
		t.Fatalf("inlinebench fig3 output:\n%s", out)
	}
}
