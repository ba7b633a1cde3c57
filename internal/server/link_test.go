package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/link"
	"optinline/internal/source"
)

// linkedUnits loads named files from the linked example corpus as /link
// request units. The unit name stays the base file name even for edit
// variants: patch addresses are the original unit names.
func linkedUnits(t *testing.T, names ...string) []LinkUnit {
	t.Helper()
	dir := filepath.Join("..", "..", "examples", "minc", "linked")
	units := make([]LinkUnit, 0, len(names))
	for _, n := range names {
		data, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			t.Fatalf("read %s: %v", n, err)
		}
		units = append(units, LinkUnit{Name: n, Source: string(data)})
	}
	return units
}

func linkedSource(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "minc", "linked", name))
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return string(data)
}

// coldLink builds a fresh cold linker over the units — the reference the
// incremental session must agree with byte for byte.
func coldLink(t *testing.T, units []LinkUnit) *link.Linker {
	t.Helper()
	tus := make([]link.TU, 0, len(units))
	for _, u := range units {
		mod, err := source.FromBytes(u.Name, []byte(u.Source))
		if err != nil {
			t.Fatalf("parse %s: %v", u.Name, err)
		}
		tus = append(tus, link.ModuleTU(u.Name, mod))
	}
	l, err := link.New(tus, link.Options{DupExported: link.DupExportedRename})
	if err != nil {
		t.Fatalf("cold link: %v", err)
	}
	return l
}

func coldShardOptions() link.ShardOptions {
	return link.ShardOptions{
		Target:  codegen.TargetX86,
		Compile: compile.Options{FnCache: compile.NewFnCache()},
		Workers: 1,
	}
}

func decodeInto(t *testing.T, body []byte, out any) {
	t.Helper()
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
}

// TestLinkSessionSearchParity drives the create/patch/search lifecycle and
// cross-checks every search response against a cold link of the current
// unit contents.
func TestLinkSessionSearchParity(t *testing.T) {
	units := linkedUnits(t, "app.minc", "mathlib.minc")
	_, ts := newTestServer(t, Config{Jobs: 2})

	status, body := post(t, ts.URL+"/link", LinkCreateRequest{
		ID: "s1", Units: units, DupPolicy: "rename",
	})
	if status != http.StatusOK {
		t.Fatalf("create: status %d: %s", status, body)
	}
	var created LinkCreateResponse
	decodeInto(t, body, &created)
	coldPlan := coldLink(t, units).Plan()
	if created.Plan.Components != len(coldPlan.Components) || created.Plan.Sites != len(coldPlan.Edges) {
		t.Fatalf("create plan %+v disagrees with cold plan (%d components, %d sites)",
			created.Plan, len(coldPlan.Components), len(coldPlan.Edges))
	}

	checkSearch := func(step string, cur []LinkUnit) {
		t.Helper()
		status, body := post(t, ts.URL+"/link/s1/search", LinkSearchRequest{MaxSpace: 1 << 20})
		if status != http.StatusOK {
			t.Fatalf("%s: search status %d: %s", step, status, body)
		}
		var got LinkSearchResponse
		decodeInto(t, body, &got)
		want, ok, err := coldLink(t, cur).OptimalSearch(link.SearchOptions{
			ShardOptions: coldShardOptions(), MaxSpace: 1 << 20,
		})
		if err != nil || !ok {
			t.Fatalf("%s: cold search: ok=%v err=%v", step, ok, err)
		}
		if !got.Searched {
			t.Fatalf("%s: searched=false", step)
		}
		if got.OptimalSize != want.Size || got.NoInlineSize != want.NoInlineSize ||
			got.ConfigKey != want.Config.Key() || got.SpaceTotal != want.SpaceTotal {
			t.Errorf("%s: search response (size %d, noInline %d, key %s, space %d) disagrees with cold (%d, %d, %s, %d)",
				step, got.OptimalSize, got.NoInlineSize, got.ConfigKey, got.SpaceTotal,
				want.Size, want.NoInlineSize, want.Config.Key(), want.SpaceTotal)
		}
		if len(got.Components) != len(want.Components) {
			t.Errorf("%s: %d component stats, cold has %d", step, len(got.Components), len(want.Components))
		}
	}

	checkSearch("initial", units)

	// Body-only edit: the plan must be reused and the next search agree
	// with a cold link of the edited contents.
	edited := []LinkUnit{units[0], {Name: "mathlib.minc", Source: linkedSource(t, "mathlib_edit1.minc")}}
	status, body = post(t, ts.URL+"/link/s1/patch", LinkPatchRequest{Unit: edited[1]})
	if status != http.StatusOK {
		t.Fatalf("patch mathlib: status %d: %s", status, body)
	}
	var patched LinkPatchResponse
	decodeInto(t, body, &patched)
	if !patched.PlanReused {
		t.Error("body-only mathlib edit: planReused=false, want true")
	}
	checkSearch("after body edit", edited)

	// Surface edit: renamed local + new function forces a plan rebuild.
	surfaced := []LinkUnit{{Name: "app.minc", Source: linkedSource(t, "app_edit1.minc")}, edited[1]}
	status, body = post(t, ts.URL+"/link/s1/patch", LinkPatchRequest{Unit: surfaced[0]})
	if status != http.StatusOK {
		t.Fatalf("patch app: status %d: %s", status, body)
	}
	decodeInto(t, body, &patched)
	if patched.PlanReused {
		t.Error("surface app edit: planReused=true, want rebuild")
	}
	checkSearch("after surface edit", surfaced)

	// Revert mathlib: earlier results replay from the shared cache.
	status, body = post(t, ts.URL+"/link/s1/patch", LinkPatchRequest{Unit: units[1]})
	if status != http.StatusOK {
		t.Fatalf("revert mathlib: status %d: %s", status, body)
	}
	checkSearch("after revert", []LinkUnit{surfaced[0], units[1]})

	st := getStats(t, ts.URL)
	if st.LinkSessions.Patches != 3 || st.LinkSessions.Searches != 4 {
		t.Errorf("linkSessions counters: %+v, want 3 patches / 4 searches", st.LinkSessions)
	}
	// Body edit and revert reuse the plan; the surface edit rebuilds it.
	if st.LinkSessions.PlanReuses != 2 || st.LinkSessions.PlanRebuilds != 1 {
		t.Errorf("linkSessions plan counters: %+v, want 2 reuses / 1 rebuild", st.LinkSessions)
	}
	// A lone session replays from its own memo; the shared cache records
	// only the solves (hits are cross-session, see the sharing test).
	if st.RelinkCache.Entries == 0 || st.RelinkCache.Misses == 0 {
		t.Errorf("relinkCache never populated: %+v", st.RelinkCache)
	}
}

// TestLinkSessionTuneParity cross-checks /link/{id}/tune against the cold
// lockstep autotuner before and after a patch.
func TestLinkSessionTuneParity(t *testing.T) {
	units := linkedUnits(t, "app.minc", "mathlib.minc")
	_, ts := newTestServer(t, Config{Jobs: 2})
	if status, body := post(t, ts.URL+"/link", LinkCreateRequest{
		ID: "tu", Units: units, DupPolicy: "rename",
	}); status != http.StatusOK {
		t.Fatalf("create: status %d: %s", status, body)
	}

	checkTune := func(step string, cur []LinkUnit) {
		t.Helper()
		status, body := post(t, ts.URL+"/link/tu/tune", LinkTuneRequest{Init: "os", Rounds: 3})
		if status != http.StatusOK {
			t.Fatalf("%s: tune status %d: %s", step, status, body)
		}
		var got LinkTuneResponse
		decodeInto(t, body, &got)
		want, err := coldLink(t, cur).Tune(link.TuneOptions{
			ShardOptions: coldShardOptions(), Rounds: 3, Init: link.InitOs,
		})
		if err != nil {
			t.Fatalf("%s: cold tune: %v", step, err)
		}
		if got.BestSize != want.Result.Size || got.InitSize != want.Result.InitSize ||
			got.FinalSize != want.Result.FinalSize || got.ConfigKey != want.Result.Config.Key() {
			t.Errorf("%s: tune response (init %d, best %d, final %d, key %s) disagrees with cold (%d, %d, %d, %s)",
				step, got.InitSize, got.BestSize, got.FinalSize, got.ConfigKey,
				want.Result.InitSize, want.Result.Size, want.Result.FinalSize, want.Result.Config.Key())
		}
		if len(got.Rounds) != len(want.Result.Rounds) {
			t.Errorf("%s: %d rounds, cold has %d", step, len(got.Rounds), len(want.Result.Rounds))
		}
	}

	checkTune("initial", units)
	edited := []LinkUnit{units[0], {Name: "mathlib.minc", Source: linkedSource(t, "mathlib_edit1.minc")}}
	if status, body := post(t, ts.URL+"/link/tu/patch", LinkPatchRequest{Unit: edited[1]}); status != http.StatusOK {
		t.Fatalf("patch: status %d: %s", status, body)
	}
	checkTune("after body edit", edited)

	if st := getStats(t, ts.URL); st.LinkSessions.Tunes != 2 {
		t.Errorf("linkSessions tunes = %d, want 2", st.LinkSessions.Tunes)
	}
}

// TestLinkErrorMatrix checks the documented status codes: 400 for bad
// parameters (including cycle objectives, which a relink session rejects
// by type), 404 for unknown session ids, 422 for parse and link failures.
func TestLinkErrorMatrix(t *testing.T) {
	units := linkedUnits(t, "app.minc", "mathlib.minc")
	_, ts := newTestServer(t, Config{Jobs: 2})
	if status, body := post(t, ts.URL+"/link", LinkCreateRequest{
		ID: "ok", Units: units, DupPolicy: "rename",
	}); status != http.StatusOK {
		t.Fatalf("create: status %d: %s", status, body)
	}

	cases := []struct {
		name string
		path string
		req  any
		want int
	}{
		{"missing id", "/link", LinkCreateRequest{Units: units, DupPolicy: "rename"}, http.StatusBadRequest},
		{"no units", "/link", LinkCreateRequest{ID: "x"}, http.StatusBadRequest},
		{"bad target", "/link", LinkCreateRequest{ID: "x", Units: units, Target: "mips", DupPolicy: "rename"}, http.StatusBadRequest},
		{"bad dup policy", "/link", LinkCreateRequest{ID: "x", Units: units, DupPolicy: "merge"}, http.StatusBadRequest},
		{"duplicate unit name", "/link", LinkCreateRequest{
			ID: "x", Units: []LinkUnit{units[0], units[0]}, DupPolicy: "rename",
		}, http.StatusBadRequest},
		{"empty unit source", "/link", LinkCreateRequest{
			ID: "x", Units: []LinkUnit{{Name: "a.minc"}},
		}, http.StatusBadRequest},
		{"unit parse error", "/link", LinkCreateRequest{
			ID: "x", Units: []LinkUnit{{Name: "bad.minc", Source: "func ("}},
		}, http.StatusUnprocessableEntity},
		{"duplicate export", "/link", LinkCreateRequest{
			ID: "x", Units: []LinkUnit{
				{Name: "a.minc", Source: "export func f(x) { return x; }"},
				{Name: "b.minc", Source: "export func f(x) { return x + 1; }"},
			},
		}, http.StatusUnprocessableEntity},
		{"patch unknown session", "/link/nope/patch", LinkPatchRequest{Unit: units[0]}, http.StatusNotFound},
		{"search unknown session", "/link/nope/search", LinkSearchRequest{}, http.StatusNotFound},
		{"tune unknown session", "/link/nope/tune", LinkTuneRequest{}, http.StatusNotFound},
		{"patch unknown unit", "/link/ok/patch", LinkPatchRequest{
			Unit: LinkUnit{Name: "ghost.minc", Source: "func g(x) { return x; }"},
		}, http.StatusUnprocessableEntity},
		{"patch parse error", "/link/ok/patch", LinkPatchRequest{
			Unit: LinkUnit{Name: "app.minc", Source: "func ("},
		}, http.StatusUnprocessableEntity},
		{"bad init", "/link/ok/tune", LinkTuneRequest{Init: "warm"}, http.StatusBadRequest},
		{"bad objective", "/link/ok/tune", LinkTuneRequest{Objective: "latency"}, http.StatusBadRequest},
		{"cycle objective", "/link/ok/tune", LinkTuneRequest{Objective: "cycles"}, http.StatusBadRequest},
		{"weighted objective", "/link/ok/tune", LinkTuneRequest{Objective: "weighted"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		status, body := post(t, ts.URL+tc.path, tc.req)
		if status != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, status, tc.want, body)
		}
	}

	// DELETE: once for 200, again for 404.
	del := func(id string) int {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/link/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := del("ok"); got != http.StatusOK {
		t.Errorf("delete ok: status %d", got)
	}
	if got := del("ok"); got != http.StatusNotFound {
		t.Errorf("delete again: status %d, want 404", got)
	}
	if status, _ := post(t, ts.URL+"/link/ok/search", LinkSearchRequest{}); status != http.StatusNotFound {
		t.Errorf("search after delete: status %d, want 404", status)
	}
}

// TestLinkRegistryReplaceAndEvict exercises create-with-existing-id
// replacement and FIFO eviction at the session bound.
func TestLinkRegistryReplaceAndEvict(t *testing.T) {
	units := linkedUnits(t, "app.minc", "mathlib.minc")
	_, ts := newTestServer(t, Config{Jobs: 2, MaxLinkSessions: 2})

	create := func(id string) {
		t.Helper()
		if status, body := post(t, ts.URL+"/link", LinkCreateRequest{
			ID: id, Units: units, DupPolicy: "rename",
		}); status != http.StatusOK {
			t.Fatalf("create %s: status %d: %s", id, status, body)
		}
	}
	create("a")
	create("a") // replace, not a second slot
	create("b")
	st := getStats(t, ts.URL)
	if st.LinkSessions.Live != 2 || st.LinkSessions.Replaced != 1 || st.LinkSessions.Evicted != 0 {
		t.Fatalf("after replace: %+v, want live 2, replaced 1, evicted 0", st.LinkSessions)
	}

	create("c") // bound 2: evicts "a", the oldest
	st = getStats(t, ts.URL)
	if st.LinkSessions.Live != 2 || st.LinkSessions.Evicted != 1 {
		t.Fatalf("after eviction: %+v, want live 2, evicted 1", st.LinkSessions)
	}
	if status, _ := post(t, ts.URL+"/link/a/search", LinkSearchRequest{}); status != http.StatusNotFound {
		t.Errorf("evicted session a: search status %d, want 404", status)
	}
	for _, id := range []string{"b", "c"} {
		if status, _ := post(t, ts.URL+"/link/"+id+"/search", LinkSearchRequest{MaxSpace: 1 << 20}); status != http.StatusOK {
			t.Errorf("surviving session %s: search status %d", id, status)
		}
	}
}

// TestLinkCacheSharedAcrossSessions checks that two sessions over the same
// units share component results.
func TestLinkCacheSharedAcrossSessions(t *testing.T) {
	units := linkedUnits(t, "app.minc", "mathlib.minc")

	search := func(ts string, id string) []byte {
		t.Helper()
		status, body := post(t, ts+"/link/"+id+"/search", LinkSearchRequest{MaxSpace: 1 << 20})
		if status != http.StatusOK {
			t.Fatalf("search %s: status %d: %s", id, status, body)
		}
		return body
	}

	_, ts := newTestServer(t, Config{Jobs: 2})
	var bodies [][]byte
	for _, id := range []string{"one", "two"} {
		if status, body := post(t, ts.URL+"/link", LinkCreateRequest{
			ID: id, Units: units, DupPolicy: "rename",
		}); status != http.StatusOK {
			t.Fatalf("create %s: status %d: %s", id, status, body)
		}
		bodies = append(bodies, search(ts.URL, id))
	}
	// Identity apart from the echoed id: both sessions saw identical units.
	norm := func(b []byte, id string) []byte {
		return bytes.Replace(b, []byte(fmt.Sprintf(`"id":%q`, id)), []byte(`"id":"X"`), 1)
	}
	if !bytes.Equal(norm(bodies[0], "one"), norm(bodies[1], "two")) {
		t.Errorf("search bodies diverge across sessions:\n%s\n%s", bodies[0], bodies[1])
	}
	st := getStats(t, ts.URL)
	if st.RelinkCache.Hits == 0 || st.RelinkCache.Entries == 0 {
		t.Errorf("shared cache unused across sessions: %+v", st.RelinkCache)
	}
}
