package cli

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestParseEditScript covers the script grammar.
func TestParseEditScript(t *testing.T) {
	ops, err := ParseEditScript([]byte("# edit session\n\npatch app.minc v2/app.minc\nsearch\ntune\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []EditOp{
		{Verb: "patch", TU: "app.minc", Path: "v2/app.minc"},
		{Verb: "search"},
		{Verb: "tune"},
	}
	if !reflect.DeepEqual(ops, want) {
		t.Errorf("ops = %+v, want %+v", ops, want)
	}
	for _, bad := range []string{"", "replace a b", "patch onlyone", "search extra"} {
		if _, err := ParseEditScript([]byte(bad)); err == nil {
			t.Errorf("ParseEditScript(%q) succeeded", bad)
		}
	}
}

// FuzzParseEditScript: any input yields well-formed ops or an error that
// names a line of the input (or the empty script), never a panic.
func FuzzParseEditScript(f *testing.F) {
	scripts, _ := filepath.Glob(filepath.Join("..", "..", "examples", "minc", "linked", "edits*.txt"))
	for _, path := range scripts {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, seed := range []string{"", "# only a comment\n", "patch a b\r\nsearch\ttune", "patch onlyone", "search extra", "\xff\n  tune  "} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := ParseEditScript(data)
		if err != nil {
			if ops != nil {
				t.Fatalf("error %v returned ops %+v", err, ops)
			}
			msg := err.Error()
			if msg == "edit script is empty" {
				return
			}
			rest, ok := strings.CutPrefix(msg, "edit script line ")
			num, _, found := strings.Cut(rest, ":")
			n, convErr := strconv.Atoi(num)
			lines := strings.Count(string(data), "\n") + 1
			if !ok || !found || convErr != nil || n < 1 || n > lines {
				t.Fatalf("error %q names no line of the %d-line input", msg, lines)
			}
			return
		}
		if len(ops) == 0 {
			t.Fatal("no ops and no error")
		}
		for _, op := range ops {
			switch {
			case op.Verb == "patch" && op.TU != "" && op.Path != "":
			case (op.Verb == "search" || op.Verb == "tune") && op.TU == "" && op.Path == "":
			default:
				t.Fatalf("malformed op %+v from %q", op, data)
			}
		}
	})
}
