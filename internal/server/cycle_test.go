package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"optinline/internal/autotune"
	"optinline/internal/compile"
)

// libPricer mirrors the server's pricer construction on a standalone
// compiler: profile the no-inline baseline at the request defaults.
func libPricer(t *testing.T, comp *compile.Compiler) *compile.CyclePricer {
	t.Helper()
	p, _, err := comp.ProfileBaseline("entry", []int64{7}, 20_000_000, compile.CycleOptions{})
	if err != nil {
		t.Fatalf("pricer: %v", err)
	}
	return p
}

// TestTuneWeightedObjectiveMatchesLibrary compares /tune with a weighted
// objective against a direct TuneWeighted session over the same profile.
func TestTuneWeightedObjectiveMatchesLibrary(t *testing.T) {
	f := exampleSources(t)[0]
	_, ts := newTestServer(t, Config{Jobs: 2})
	comp := libCompiler(t, f)
	pricer := libPricer(t, comp)
	want := autotune.TuneWeighted(comp, pricer, 0.1, nil, autotune.Options{Rounds: 3, Workers: 1})

	status, body := post(t, ts.URL+"/tune", TuneRequest{
		Name: f.name, Source: f.src, Init: "clean", Rounds: 3,
		Objective: "weighted", Lambda: 0.1,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp TuneResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if resp.Objective != "weighted" || resp.Lambda != 0.1 {
		t.Errorf("echoed objective %q lambda %v", resp.Objective, resp.Lambda)
	}
	if resp.InitSize != want.InitSize || resp.InitCycles != want.InitCycles {
		t.Errorf("init (%d,%d), library (%d,%d)", resp.InitSize, resp.InitCycles, want.InitSize, want.InitCycles)
	}
	if resp.BestSize != want.Size || resp.BestCycles != want.Cycles {
		t.Errorf("best (%d,%d), library (%d,%d)", resp.BestSize, resp.BestCycles, want.Size, want.Cycles)
	}
	if resp.ConfigKey != want.Config.Key() {
		t.Errorf("configKey %q, library %q", resp.ConfigKey, want.Config.Key())
	}
	if len(resp.Rounds) != len(want.Rounds) {
		t.Fatalf("%d rounds, library %d", len(resp.Rounds), len(want.Rounds))
	}
	for i, rt := range want.Rounds {
		got := resp.Rounds[i]
		if got.Size != rt.Size || got.Cycles != rt.Cycles || got.Toggles != rt.Toggles {
			t.Errorf("round %d: %+v, library %+v", i, got, rt)
		}
	}
	if resp.BestCycles <= 0 {
		t.Errorf("BestCycles = %d, want > 0", resp.BestCycles)
	}
}

// TestTuneObjectiveErrors walks the cycle-objective rejection matrix.
func TestTuneObjectiveErrors(t *testing.T) {
	f := exampleSources(t)[0]
	_, ts := newTestServer(t, Config{Jobs: 1})

	cases := []struct {
		name string
		req  TuneRequest
		code int
	}{
		{"unknown objective", TuneRequest{Name: f.name, Source: f.src, Objective: "latency"}, http.StatusBadRequest},
		{"negative lambda", TuneRequest{Name: f.name, Source: f.src, Objective: "weighted", Lambda: -1}, http.StatusBadRequest},
		{"missing entry", TuneRequest{Name: f.name, Source: f.src, Objective: "cycles", Entry: "no_such_fn"}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		status, body := post(t, ts.URL+"/tune", tc.req)
		if status != tc.code {
			t.Errorf("%s: status %d (want %d): %s", tc.name, status, tc.code, body)
		}
	}
}

// TestTuneSizeResponseHasNoCycleFields pins the legacy response shape:
// size sessions must not grow objective/cycle keys on the wire.
func TestTuneSizeResponseHasNoCycleFields(t *testing.T) {
	f := exampleSources(t)[0]
	_, ts := newTestServer(t, Config{Jobs: 1})
	status, body := post(t, ts.URL+"/tune", TuneRequest{Name: f.name, Source: f.src, Rounds: 2})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	for _, key := range []string{"objective", "lambda", "initCycles", "bestCycles", "cycles"} {
		if bytes.Contains(body, []byte(`"`+key+`"`)) {
			t.Errorf("size-session body leaks %q: %s", key, body)
		}
	}
}
