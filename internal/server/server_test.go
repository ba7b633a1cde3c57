package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"optinline/internal/autotune"
	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/heuristic"
	"optinline/internal/search"
	"optinline/internal/source"
)

type exampleFile struct {
	name string
	src  string
}

// exampleSources loads the repo's example MinC corpus (the same files the
// CLI smoke tests use), sorted by name for reproducible request orders.
func exampleSources(t testing.TB) []exampleFile {
	t.Helper()
	dir := filepath.Join("..", "..", "examples", "minc")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read examples dir: %v", err)
	}
	var files []exampleFile
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".minc") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("read %s: %v", e.Name(), err)
		}
		files = append(files, exampleFile{name: e.Name(), src: string(data)})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].name < files[j].name })
	if len(files) == 0 {
		t.Fatal("no example sources found")
	}
	return files
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON request and returns status and raw body.
func post(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp.StatusCode, data
}

// libCompiler builds a fresh standalone compiler for reference results.
func libCompiler(t *testing.T, f exampleFile) *compile.Compiler {
	t.Helper()
	mod, err := source.FromBytes(f.name, []byte(f.src))
	if err != nil {
		t.Fatalf("parse %s: %v", f.name, err)
	}
	return compile.NewWithOptions(mod, codegen.TargetX86, compile.Options{FnCache: compile.NewFnCache()})
}

// TestCompileEndpointModes checks every inline mode against direct library
// computation on the example corpus.
func TestCompileEndpointModes(t *testing.T) {
	files := exampleSources(t)
	_, ts := newTestServer(t, Config{Jobs: 2})
	for _, f := range files {
		comp := libCompiler(t, f)
		g := comp.Graph()
		osCfg := heuristic.OsConfig(comp.Module(), g)
		optRes, ok := search.Optimal(comp, search.Options{Workers: 1, MaxSpace: 1 << 16})
		if !ok {
			t.Fatalf("%s: example exceeds search space", f.name)
		}
		tuneBest, _, _ := autotune.Combined(comp, osCfg, autotune.ExtOptions{Options: autotune.Options{Rounds: 4, Workers: 1}})
		want := map[string]int{
			"none":    comp.Size(callgraph.NewConfig()),
			"os":      comp.Size(osCfg),
			"tune":    tuneBest.Size,
			"optimal": optRes.Size,
		}
		for mode, wantSize := range want {
			status, body := post(t, ts.URL+"/compile", CompileRequest{
				Name: f.name, Source: f.src, Inline: mode, MaxSpace: 1 << 16,
			})
			if status != http.StatusOK {
				t.Fatalf("%s inline=%s: status %d: %s", f.name, mode, status, body)
			}
			var resp CompileResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatalf("%s inline=%s: bad JSON: %v", f.name, mode, err)
			}
			if resp.Size != wantSize {
				t.Errorf("%s inline=%s: size %d, library says %d", f.name, mode, resp.Size, wantSize)
			}
			if resp.InlinableSites != len(g.Edges) {
				t.Errorf("%s inline=%s: inlinableSites %d, want %d", f.name, mode, resp.InlinableSites, len(g.Edges))
			}
		}
	}
}

// TestSearchEndpointMatchesLibrary compares /search's full report with a
// direct inlinesearch-style run.
func TestSearchEndpointMatchesLibrary(t *testing.T) {
	files := exampleSources(t)
	_, ts := newTestServer(t, Config{Jobs: 2})
	for _, f := range files {
		comp := libCompiler(t, f)
		g := comp.Graph()
		osCfg := heuristic.OsConfig(comp.Module(), g)
		res, ok := search.Optimal(comp, search.Options{Workers: 1, MaxSpace: 1 << 16})
		if !ok {
			t.Fatalf("%s: example exceeds search space", f.name)
		}
		status, body := post(t, ts.URL+"/search", SearchRequest{Name: f.name, Source: f.src, MaxSpace: 1 << 16})
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", f.name, status, body)
		}
		var resp SearchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("%s: bad JSON: %v", f.name, err)
		}
		if !resp.Searched {
			t.Fatalf("%s: searched=false, want true", f.name)
		}
		if resp.NoInlineSize != comp.Size(callgraph.NewConfig()) ||
			resp.HeuristicSize != comp.Size(osCfg) ||
			resp.OptimalSize != res.Size {
			t.Errorf("%s: sizes (%d,%d,%d) disagree with library (%d,%d,%d)", f.name,
				resp.NoInlineSize, resp.HeuristicSize, resp.OptimalSize,
				comp.Size(callgraph.NewConfig()), comp.Size(osCfg), res.Size)
		}
		if resp.ConfigKey != res.Config.Key() {
			t.Errorf("%s: configKey %q, library %q", f.name, resp.ConfigKey, res.Config.Key())
		}
		if want := callgraph.Agreement(g.Sites(), res.Config, osCfg); resp.Agreement != want {
			t.Errorf("%s: agreement %v, library %v", f.name, resp.Agreement, want)
		}
		if resp.SpaceSize != res.SpaceSize {
			t.Errorf("%s: spaceSize %d, library %d", f.name, resp.SpaceSize, res.SpaceSize)
		}
	}
}

// TestTuneEndpointMatchesLibrary compares /tune's round trace with a direct
// autotune session.
func TestTuneEndpointMatchesLibrary(t *testing.T) {
	f := exampleSources(t)[0]
	_, ts := newTestServer(t, Config{Jobs: 2})
	comp := libCompiler(t, f)
	osCfg := heuristic.OsConfig(comp.Module(), comp.Graph())
	want := autotune.Tune(comp, osCfg, autotune.Options{Rounds: 3, Workers: 1})

	status, body := post(t, ts.URL+"/tune", TuneRequest{Name: f.name, Source: f.src, Init: "os", Rounds: 3})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp TuneResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if resp.InitSize != want.InitSize || resp.BestSize != want.Size {
		t.Errorf("sizes (%d,%d), library (%d,%d)", resp.InitSize, resp.BestSize, want.InitSize, want.Size)
	}
	if resp.ConfigKey != want.Config.Key() {
		t.Errorf("configKey %q, library %q", resp.ConfigKey, want.Config.Key())
	}
	if len(resp.Rounds) != len(want.Rounds) {
		t.Fatalf("%d rounds, library %d", len(resp.Rounds), len(want.Rounds))
	}
	for i, rt := range want.Rounds {
		got := resp.Rounds[i]
		if got.Round != rt.Round || got.Size != rt.Size || got.Inlined != rt.Inlined ||
			got.NotInlined != rt.NotInlined || got.Toggles != rt.Toggles {
			t.Errorf("round %d: %+v, library %+v", i, got, rt)
		}
	}
}

// TestErrorPaths walks the rejection matrix: malformed bodies, unknown
// enums, unparseable sources, over-budget optimal requests.
func TestErrorPaths(t *testing.T) {
	f := exampleSources(t)[0]
	_, ts := newTestServer(t, Config{Jobs: 1})

	raw := func(path, payload string) (int, []byte) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data
	}

	cases := []struct {
		desc    string
		path    string
		payload string
		want    int
	}{
		{"malformed JSON", "/compile", `{"name":`, http.StatusBadRequest},
		{"unknown field", "/compile", `{"name":"x.minc","source":"func f(){return 1;}","bogus":1}`, http.StatusBadRequest},
		{"missing source", "/compile", `{"name":"x.minc"}`, http.StatusBadRequest},
		{"unknown target", "/compile", `{"name":"x.minc","source":"x","target":"arm"}`, http.StatusBadRequest},
		{"unknown inline mode", "/compile", fmt.Sprintf(`{"name":%q,"source":%q,"inline":"fast"}`, f.name, f.src), http.StatusBadRequest},
		{"parse failure", "/compile", `{"name":"x.ir","source":"garbage"}`, http.StatusUnprocessableEntity},
		{"optimal over budget", "/compile", fmt.Sprintf(`{"name":%q,"source":%q,"inline":"optimal","maxSpace":1}`, f.name, f.src), http.StatusUnprocessableEntity},
		{"tune bad init", "/tune", fmt.Sprintf(`{"name":%q,"source":%q,"init":"hot"}`, f.name, f.src), http.StatusBadRequest},
		{"tune unknown noCycleDelta", "/tune", fmt.Sprintf(`{"name":%q,"source":%q,"objective":"cycles","noCycleDelta":true}`, f.name, f.src), http.StatusBadRequest},
	}
	for _, tc := range cases {
		status, body := raw(tc.path, tc.payload)
		if status != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.desc, status, tc.want, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body not ErrorResponse JSON: %s", tc.desc, body)
		}
	}

	// /search over budget is NOT an error: it reports searched=false.
	status, body := raw("/search", fmt.Sprintf(`{"name":%q,"source":%q,"maxSpace":1}`, f.name, f.src))
	if status != http.StatusOK {
		t.Fatalf("search over budget: status %d: %s", status, body)
	}
	var sr SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if sr.Searched || sr.SpaceSize <= 1 {
		t.Errorf("over-budget search: searched=%v spaceSize=%d, want false and >1", sr.Searched, sr.SpaceSize)
	}
}

// TestQueueFullRejects drives the daemon into overload — one token, no
// waiting allowed — and checks the fast 503.
func TestQueueFullRejects(t *testing.T) {
	f := exampleSources(t)[0]
	_, ts := newTestServer(t, Config{Jobs: 1, MaxQueue: -1, AllowDelay: true})

	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		status, body := post(t, ts.URL+"/compile", CompileRequest{
			Name: f.name, Source: f.src, Inline: "none", DelayMs: 2000,
		})
		if status != http.StatusOK {
			t.Errorf("blocking request: status %d: %s", status, body)
		}
		close(release)
	}()

	// Wait until the slow request holds the only token.
	waitFor(t, ts.URL, func(st StatsResponse) bool { return st.Queue.Busy == 1 })

	status, body := post(t, ts.URL+"/compile", CompileRequest{Name: f.name, Source: f.src, Inline: "none"})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("overload request: status %d, want 503 (%s)", status, body)
	}
	<-release
	wg.Wait()

	// After the token frees up the same request succeeds.
	status, body = post(t, ts.URL+"/compile", CompileRequest{Name: f.name, Source: f.src, Inline: "none"})
	if status != http.StatusOK {
		t.Fatalf("post-overload request: status %d: %s", status, body)
	}
	st := getStats(t, ts.URL)
	if st.Queue.Rejected != 1 {
		t.Errorf("queue.rejected = %d, want 1", st.Queue.Rejected)
	}
	if st.Requests["compile"].Busy != 1 {
		t.Errorf("compile.busy = %d, want 1", st.Requests["compile"].Busy)
	}
}

// TestRequestTimeoutAndCancellation exercises both context exits: the
// server deadline firing in the delay phase (504 to the client) and a
// client disconnect cancelling a *queued* request (the waiter is removed
// and counted, and its tokens are never granted).
func TestRequestTimeoutAndCancellation(t *testing.T) {
	f := exampleSources(t)[0]
	_, ts := newTestServer(t, Config{Jobs: 1, MaxQueue: 4, RequestTimeout: 400 * time.Millisecond, AllowDelay: true})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The delay outlives the server deadline: this request holds the
		// only token until its 504, then releases it.
		status, body := post(t, ts.URL+"/compile", CompileRequest{Name: f.name, Source: f.src, DelayMs: 5000})
		if status != http.StatusGatewayTimeout {
			t.Errorf("delay-phase request: status %d, want 504 (%s)", status, body)
		}
	}()
	waitFor(t, ts.URL, func(st StatsResponse) bool { return st.Queue.Busy == 1 })

	// A second request queues behind the held token; its client hangs up
	// before the token frees, so the server abandons the wait.
	payload, _ := json.Marshal(CompileRequest{Name: f.name, Source: f.src, Inline: "none"})
	client := &http.Client{Timeout: 100 * time.Millisecond}
	if _, err := client.Post(ts.URL+"/compile", "application/json", bytes.NewReader(payload)); err == nil {
		t.Fatal("queued request with hung-up client unexpectedly succeeded")
	}
	wg.Wait()

	waitFor(t, ts.URL, func(st StatsResponse) bool {
		return st.Requests["compile"].Timeouts == 2 && st.Queue.Busy == 0 && st.Queue.Queued == 0
	})
	// The pool must be whole again: a full-width request still fits.
	status, body := post(t, ts.URL+"/compile", CompileRequest{Name: f.name, Source: f.src, Inline: "none", Jobs: 1})
	if status != http.StatusOK {
		t.Fatalf("post-cancellation request: status %d: %s", status, body)
	}
}

// TestDrainSemantics checks the two-phase shutdown: in-flight work
// finishes; new work and /healthz answer 503, Drain returns once idle.
func TestDrainSemantics(t *testing.T) {
	f := exampleSources(t)[0]
	s, ts := newTestServer(t, Config{Jobs: 2, AllowDelay: true})

	type result struct {
		status int
		body   []byte
	}
	inflight := make(chan result, 1)
	go func() {
		status, body := post(t, ts.URL+"/compile", CompileRequest{
			Name: f.name, Source: f.src, Inline: "none", DelayMs: 800,
		})
		inflight <- result{status, body}
	}()
	waitFor(t, ts.URL, func(st StatsResponse) bool { return st.Queue.Busy == 1 })

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- s.Drain(ctx)
	}()

	// Drain has begun (flag flips before the wait); poll until visible.
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// While draining: health checks fail so load balancers rotate us out...
	hstatus := getStatus(t, ts.URL+"/healthz")
	if hstatus != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: status %d, want 503", hstatus)
	}
	// ...new work is refused...
	status, body := post(t, ts.URL+"/compile", CompileRequest{Name: f.name, Source: f.src, Inline: "none"})
	if status != http.StatusServiceUnavailable {
		t.Errorf("new work during drain: status %d, want 503 (%s)", status, body)
	}
	// ...but the in-flight request completes normally.
	r := <-inflight
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d: %s", r.status, r.body)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// /stats still answers after the drain (observability survives).
	if st := getStats(t, ts.URL); !st.Draining {
		t.Error("stats after drain: draining=false, want true")
	}
}

// TestStatsConsistency replays a small batch and cross-checks the counters.
func TestStatsConsistency(t *testing.T) {
	files := exampleSources(t)
	_, ts := newTestServer(t, Config{Jobs: 2})
	const repeats = 3
	n := 0
	for i := 0; i < repeats; i++ {
		for _, f := range files {
			status, body := post(t, ts.URL+"/compile", CompileRequest{Name: f.name, Source: f.src, Inline: "os"})
			if status != http.StatusOK {
				t.Fatalf("%s: status %d: %s", f.name, status, body)
			}
			n++
		}
	}
	st := getStats(t, ts.URL)
	if got := st.Requests["compile"].Count; got != int64(n) {
		t.Errorf("compile.count = %d, want %d", got, n)
	}
	if st.Queue.Granted != int64(n) {
		t.Errorf("queue.granted = %d, want %d", st.Queue.Granted, n)
	}
	if st.Compilers.Built != int64(len(files)) {
		t.Errorf("compilers.built = %d, want %d (one per distinct module)", st.Compilers.Built, len(files))
	}
	if st.Compilers.Hits != int64(n-len(files)) {
		t.Errorf("compilers.hits = %d, want %d", st.Compilers.Hits, n-len(files))
	}
	if st.FnCache.Entries == 0 || st.FnCache.Misses == 0 {
		t.Errorf("fnCache stats look empty: %+v", st.FnCache)
	}
	if st.Queue.Busy != 0 || st.Queue.Queued != 0 {
		t.Errorf("idle server reports busy=%d queued=%d", st.Queue.Busy, st.Queue.Queued)
	}
	if st.Draining {
		t.Error("draining=true on a live server")
	}
}

// TestCompilerPoolEviction bounds the pool at one compiler and checks LRU
// turnover plus monotone retired aggregates.
func TestCompilerPoolEviction(t *testing.T) {
	files := exampleSources(t)
	if len(files) < 2 {
		t.Skip("need two example files")
	}
	_, ts := newTestServer(t, Config{Jobs: 1, MaxCompilers: 1})
	for i := 0; i < 2; i++ {
		for _, f := range files[:2] {
			status, body := post(t, ts.URL+"/compile", CompileRequest{Name: f.name, Source: f.src, Inline: "os"})
			if status != http.StatusOK {
				t.Fatalf("%s: status %d: %s", f.name, status, body)
			}
		}
	}
	st := getStats(t, ts.URL)
	if st.Compilers.Live != 1 {
		t.Errorf("compilers.live = %d, want 1", st.Compilers.Live)
	}
	if st.Compilers.Built != 4 {
		t.Errorf("compilers.built = %d, want 4 (alternation defeats an LRU of one)", st.Compilers.Built)
	}
	if st.Compilers.Evicted != 3 {
		t.Errorf("compilers.evicted = %d, want 3", st.Compilers.Evicted)
	}
	// Retired counters keep evicted compilers' work visible.
	if st.Evaluations == 0 || st.ConfigCache.Misses == 0 {
		t.Errorf("aggregates dropped retired compilers: evals=%d configCache=%+v", st.Evaluations, st.ConfigCache)
	}
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func getStats(t *testing.T, base string) StatsResponse {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	return st
}

// waitFor polls /stats until cond holds (or fails the test after 5s).
func waitFor(t *testing.T, base string, cond func(StatsResponse) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if cond(getStats(t, base)) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAnalyzeEndpoint pins the /analyze contract: a deterministic body
// (byte-identical across worker budgets and across warm/cold summary
// caches; TestCheckedServerByteIdentical covers scratch summaries) carrying
// the feature schema, per-function summaries in module order, sorted
// findings, and one feature vector per site.
func TestAnalyzeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	f := exampleSources(t)[0]

	var first []byte
	for _, jobs := range []int{1, 2, 8} {
		status, body := post(t, ts.URL+"/analyze", AnalyzeRequest{Name: f.name, Source: f.src, Jobs: jobs})
		if status != http.StatusOK {
			t.Fatalf("jobs=%d: status %d: %s", jobs, status, body)
		}
		if first == nil {
			first = body
		} else if !bytes.Equal(body, first) {
			t.Errorf("jobs=%d response differs from jobs=1", jobs)
		}
	}

	// Warm rerun against the same (now populated) summary cache.
	if _, warm := post(t, ts.URL+"/analyze", AnalyzeRequest{Name: f.name, Source: f.src}); !bytes.Equal(warm, first) {
		t.Error("warm summary-cache rerun changed the response body")
	}

	var resp AnalyzeResponse
	if err := json.Unmarshal(first, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.SchemaVersion == 0 || len(resp.FeatureNames) == 0 {
		t.Errorf("schemaVersion=%d featureNames=%d", resp.SchemaVersion, len(resp.FeatureNames))
	}
	if resp.Findings == nil {
		t.Error("findings must be an array, never null")
	}
	var funcs []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(resp.Functions, &funcs); err != nil || funcs == nil {
		t.Fatalf("functions is not a summary array: %v", err)
	}
	for i, site := range resp.Sites {
		if got, want := len(site.Features), len(resp.FeatureNames); got != want {
			t.Fatalf("site %d: %d features, want %d", site.Site, got, want)
		}
		if i > 0 && resp.Sites[i-1].Site >= site.Site {
			t.Errorf("sites not sorted: %d then %d", resp.Sites[i-1].Site, site.Site)
		}
		if site.Caller == "" || site.Callee == "" {
			t.Errorf("site %d missing caller/callee", site.Site)
		}
	}

	// Error paths.
	if status, _ := post(t, ts.URL+"/analyze", AnalyzeRequest{Name: f.name}); status != http.StatusBadRequest {
		t.Errorf("missing source: status %d, want 400", status)
	}
	if status, _ := post(t, ts.URL+"/analyze", AnalyzeRequest{Name: f.name, Source: f.src, Target: "mips"}); status != http.StatusBadRequest {
		t.Errorf("bad target: status %d, want 400", status)
	}
	if status, _ := post(t, ts.URL+"/analyze", AnalyzeRequest{Name: "x.minc", Source: "func {"}); status != http.StatusUnprocessableEntity {
		t.Errorf("parse error: status %d, want 422", status)
	}
}

// TestAnalyzeStatsCounters: repeated /analyze of one module must hit the
// summary cache, and /stats reports the counters.
func TestAnalyzeStatsCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	f := exampleSources(t)[0]
	for i := 0; i < 3; i++ {
		if status, body := post(t, ts.URL+"/analyze", AnalyzeRequest{Name: f.name, Source: f.src}); status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
	}
	st := getStats(t, ts.URL)
	if st.SummaryCache.Entries == 0 || st.SummaryCache.Misses == 0 {
		t.Errorf("summary cache never filled: %+v", st.SummaryCache)
	}
	if st.SummaryCache.Hits == 0 {
		t.Errorf("warm /analyze reruns produced no summary-cache hits: %+v", st.SummaryCache)
	}
	if got := st.Requests["analyze"].Count; got != 3 {
		t.Errorf("analyze.count = %d, want 3", got)
	}

	// A checked daemon computes summaries from scratch: all-zero counters.
	_, scratch := newTestServer(t, Config{Check: true})
	post(t, scratch.URL+"/analyze", AnalyzeRequest{Name: f.name, Source: f.src})
	if st := getStats(t, scratch.URL); st.SummaryCache != (SummaryCacheCounters{}) {
		t.Errorf("checked daemon reports summary-cache counters: %+v", st.SummaryCache)
	}
}
