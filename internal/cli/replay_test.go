package cli

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// newFlags registers every shared group on a fresh flag set, parses args
// and starts the run.
func newFlags(t *testing.T, args ...string) (*Flags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := New("test", fs)
	f.AddTarget()
	f.AddJobs(0, "")
	f.AddCheck("")
	f.AddMaxSpace(1<<20, "")
	f.AddRounds(4, "")
	f.AddInit()
	f.AddLink("")
	f.AddRelink()
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f, f.Start()
}

// replay runs the -relink driver as a CLI parsing args would and returns
// its stdout.
func replay(t *testing.T, args ...string) string {
	t.Helper()
	f, err := newFlags(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Finish()
	var out bytes.Buffer
	if err := f.Replay(&out); err != nil {
		t.Fatalf("replay %v: %v\n%s", args, err, out.String())
	}
	return out.String()
}

var stepHeader = regexp.MustCompile(`(?m)^== step \d+: `)

// steps splits a replay's stdout into its per-step blocks, with the step
// number in each header blanked out.
func steps(out string) []string {
	idx := stepHeader.FindAllStringIndex(out, -1)
	blocks := make([]string, len(idx))
	for i, loc := range idx {
		end := len(out)
		if i+1 < len(idx) {
			end = idx[i+1][0]
		}
		blocks[i] = stepHeader.ReplaceAllString(out[loc[0]:end], "== step N: ")
	}
	return blocks
}

// TestReplayMixedScript replays the shipped mixed edit script, which
// interleaves search and tune steps on one session. The default replay
// must print what the reference does (-check: a cold link per query), and
// every query block must equal the block a fresh -check replay of the same
// unit contents prints for that query alone.
func TestReplayMixedScript(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	// Unit names are the CLI paths, relative to the repository root.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })

	script := filepath.Join("examples", "minc", "linked", "edits_mixed.txt")
	units := []string{"-link-dup", "rename",
		filepath.Join("examples", "minc", "linked", "app.minc"),
		filepath.Join("examples", "minc", "linked", "mathlib.minc")}
	warm := replay(t, append([]string{"-relink", script}, units...)...)
	if checked := replay(t, append([]string{"-check", "-relink", script}, units...)...); checked != warm {
		t.Fatalf("default and -check replays differ:\n--- default\n%s--- check\n%s", warm, checked)
	}

	data, err := os.ReadFile(script)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := ParseEditScript(data)
	if err != nil {
		t.Fatal(err)
	}
	blocks := steps(warm)
	if len(blocks) != len(ops) {
		t.Fatalf("%d step blocks for %d ops:\n%s", len(blocks), len(ops), warm)
	}
	var patches []string
	verbs := map[string]int{}
	for i, op := range ops {
		if op.Verb == "patch" {
			path := filepath.Join(root, filepath.Dir(script), op.Path)
			patches = append(patches, fmt.Sprintf("patch %s %s", op.TU, path))
			continue
		}
		verbs[op.Verb]++
		one := filepath.Join(t.TempDir(), "one.txt")
		if err := os.WriteFile(one, []byte(strings.Join(append(patches, op.Verb), "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
		ref := steps(replay(t, append([]string{"-check", "-relink", one}, units...)...))
		if got, want := blocks[i], ref[len(ref)-1]; got != want {
			t.Errorf("step %d (%s) differs from a fresh reference:\n--- mixed\n%s--- reference\n%s", i+1, op.Verb, got, want)
		}
	}
	if verbs["search"] == 0 || verbs["tune"] == 0 {
		t.Fatalf("the mixed script should hold both query verbs, has %v", verbs)
	}
}

// TestStartRejectsUnknownNames: every CLI rejects an unknown -target,
// -link-dup or -init before doing any work, with one message per flag.
func TestStartRejectsUnknownNames(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-target", "arm"}, `-target: unknown target "arm"`},
		{[]string{"-target", "WASM"}, `-target: unknown target "WASM"`},
		{[]string{"-link-dup", "keep"}, `-link-dup: unknown dupPolicy "keep"`},
		{[]string{"-init", "warm"}, `-init: unknown init mode "warm"`},
	} {
		_, err := newFlags(t, append(tc.args, "x.minc")...)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want prefix %q", tc.args, err, tc.want)
		}
	}
	for _, args := range [][]string{
		{"-target", "x86"}, {"-target", "wasm"},
		{"-link-dup", "error"}, {"-link-dup", "rename"},
		{"-init", "clean"}, {"-init", "os"}, {"-init", "both"},
	} {
		if _, err := newFlags(t, append(args, "x.minc")...); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}
