package ir

import (
	"strings"
	"testing"
)

const goldenSrc = `
global @g

func @helper(%a, %b) {
entry:
  %s = add %a, %b
  %c = const 7
  %p = mul %s, %c
  ret %p
}

export func @main(%n) {
entry:
  %r = call @helper(%n, %n) !site 1
  %z = const 0
  %cmp = gt %r, %z
  condbr %cmp, big, small
big:
  storeg @g, %r
  ret %r
small:
  %m = call @helper(%n, %n) !site 2
  ret %m
}
`

func parseGolden(t *testing.T) *Module {
	t.Helper()
	m, err := Parse("golden", goldenSrc)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFingerprintGolden pins the hash values of a fixed module. The
// per-function compile cache persists sizes across runs under these hashes,
// so any change to the hash inputs or mixing silently invalidates — or,
// worse, silently *mis-shares* — persisted caches. This test makes such a
// change loud: if it fails, bump compile.PipelineVersion (when sizes
// changed meaning) or knowingly accept a cache-invalidating hash change.
func TestFingerprintGolden(t *testing.T) {
	m := parseGolden(t)
	wantFn := map[string]uint64{
		"helper": 0x4df25f1ecc5b2cbd,
		"main":   0x3ddc188c551a376f,
	}
	for _, f := range m.Funcs {
		if got := f.Fingerprint(); got != wantFn[f.Name] {
			t.Errorf("func %s fingerprint = %#016x, want %#016x", f.Name, got, wantFn[f.Name])
		}
	}
	if got := m.Fingerprint(); got != 0x763a3f96a40c4433 {
		t.Errorf("module fingerprint = %#016x, want 0x763a3f96a40c4433", got)
	}
}

// TestHasherGolden pins the Hasher primitive encodings (length-prefixed
// strings, sign-extended ints, both lanes).
func TestHasherGolden(t *testing.T) {
	h := NewHasher()
	h.Str("abc")
	h.Int(-5)
	h.Uint64(42)
	if got := h.Sum64(); got != 0xe188cc6e124fcc18 {
		t.Errorf("Sum64 = %#016x, want 0xe188cc6e124fcc18", got)
	}
	hi, lo := h.Sum128()
	if hi != 0xe188cc6e124fcc18 || lo != 0x405270175c57bf3f {
		t.Errorf("Sum128 = %#016x, %#016x; want 0xe188cc6e124fcc18, 0x405270175c57bf3f", hi, lo)
	}
}

// TestFingerprintRenameInvariant is the structural-vs-printed split: value
// renaming changes the printed form but must not change the structural
// hashes.
func TestFingerprintRenameInvariant(t *testing.T) {
	m := parseGolden(t)
	renamed, err := Parse("renamed", strings.NewReplacer(
		"%s", "%sum", "%p", "%prod", "%r", "%res", "%cmp", "%cond",
		"big:", "yes:", "big,", "yes,", "small", "no",
	).Replace(goldenSrc))
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range m.Funcs {
		if got, want := renamed.Funcs[i].Fingerprint(), f.Fingerprint(); got != want {
			t.Errorf("func %s: rename changed structural fingerprint: %#x != %#x", f.Name, got, want)
		}
	}
	if got, want := renamed.Fingerprint(), m.Fingerprint(); got != want {
		t.Errorf("rename changed module fingerprint: %#x != %#x", got, want)
	}
	if renamed.String() == m.String() {
		t.Error("the rename left the printed form unchanged; the test proves nothing")
	}
}

// TestFingerprintRoundTrip: printing and re-parsing must preserve all
// hashes (the printed form is a faithful serialization).
func TestFingerprintRoundTrip(t *testing.T) {
	m := parseGolden(t)
	back, err := Parse("roundtrip", m.String())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.Fingerprint(), m.Fingerprint(); got != want {
		t.Errorf("round trip changed module fingerprint: %#x != %#x", got, want)
	}
	if got, want := back.String(), m.String(); got != want {
		t.Errorf("round trip changed the printed form:\n%s\nwant:\n%s", got, want)
	}
}

// TestFingerprintSeparates: semantically different edits must change the
// function hash — constants, operators, callee names, CFG shape, export.
func TestFingerprintSeparates(t *testing.T) {
	base := parseGolden(t)
	fp := base.Func("helper").Fingerprint()
	edits := map[string][2]string{
		"constant": {"const 7", "const 8"},
		"operator": {"%p = mul %s, %c", "%p = add %s, %c"},
	}
	for name, e := range edits {
		mod, err := Parse(name, strings.Replace(goldenSrc, e[0], e[1], 1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if mod.Func("helper").Fingerprint() == fp {
			t.Errorf("%s edit did not change the fingerprint", name)
		}
	}
	// Renaming the callee everywhere: callers must re-hash (callee names are
	// the linkage the cache key relies on), while the renamed function's own
	// body hash must NOT change — its name is not part of its structure,
	// which is what lets identically-shaped helpers share cache entries
	// across modules.
	renamed, err := Parse("callee", strings.ReplaceAll(goldenSrc, "@helper", "@assist"))
	if err != nil {
		t.Fatal(err)
	}
	if renamed.Func("main").Fingerprint() == base.Func("main").Fingerprint() {
		t.Error("callee rename did not change the caller's fingerprint")
	}
	if renamed.Func("assist").Fingerprint() != fp {
		t.Error("a function's own name should not affect its fingerprint")
	}
	unexported, err := Parse("unexported", strings.Replace(goldenSrc, "export func @main", "func @main", 1))
	if err != nil {
		t.Fatal(err)
	}
	if unexported.Func("main").Fingerprint() == base.Func("main").Fingerprint() {
		t.Error("export-flag edit did not change the fingerprint")
	}
}

// TestModuleFingerprintSiteSensitive: Function.Fingerprint ignores site
// IDs by design; Module.Fingerprint must not, because the whole-config
// memo keys (fingerprint, config) pairs and configs label sites by ID.
func TestModuleFingerprintSiteSensitive(t *testing.T) {
	m := parseGolden(t)
	resited, err := Parse("resited", strings.NewReplacer(
		"!site 1", "!site 2", "!site 2", "!site 1",
	).Replace(goldenSrc))
	if err != nil {
		t.Fatal(err)
	}
	// Swapping the two site IDs changes which labels couple to which call.
	if resited.Func("main").Fingerprint() != m.Func("main").Fingerprint() {
		t.Error("function fingerprint should ignore site IDs")
	}
	if resited.Fingerprint() == m.Fingerprint() {
		t.Error("module fingerprint should be sensitive to site assignment")
	}
}
