package optinline

// End-to-end tests of the inlined daemon and the inlineload generator,
// driven through real binaries on a random port: the service must answer
// with exactly the numbers the batch CLIs print, survive a verified
// concurrent replay, and drain gracefully on SIGTERM. Skipped in -short
// mode (each run builds the tools).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"optinline/internal/server"
)

// buildTool compiles one cmd/ tool into dir and returns the binary path.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/%s: %v\n%s", name, err, out)
	}
	return bin
}

// daemon wraps a running inlined process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	logs *bytes.Buffer
	eof  chan struct{} // closed once stderr has been read to its end
}

// startDaemon launches inlined on an ephemeral port and parses the
// listening address off its stderr contract line.
func startDaemon(t *testing.T, bin string, extraArgs ...string) *daemon {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatalf("stderr pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start inlined: %v", err)
	}
	d := &daemon{cmd: cmd, logs: &bytes.Buffer{}, eof: make(chan struct{})}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	sc := bufio.NewScanner(stderr)
	listenRE := regexp.MustCompile(`listening on http://(\S+)`)
	for sc.Scan() {
		line := sc.Text()
		d.logs.WriteString(line + "\n")
		if m := listenRE.FindStringSubmatch(line); m != nil {
			d.addr = m[1]
			break
		}
	}
	if d.addr == "" {
		t.Fatalf("inlined never printed its listen address; stderr:\n%s", d.logs)
	}
	go func() { // keep draining stderr so the child never blocks on a full pipe
		defer close(d.eof)
		for sc.Scan() {
			d.logs.WriteString(sc.Text() + "\n")
		}
	}()
	return d
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// wait reads the daemon's stderr to its end, then reaps the process: Wait
// closes the pipe, so waiting first could drop the last lines logged.
func (d *daemon) wait() error {
	<-d.eof
	return d.cmd.Wait()
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, data
}

// searchCLIReport is what `inlinesearch file.minc` printed, parsed.
type searchCLIReport struct {
	noInline    int
	heuristic   int
	optimal     int
	inlined     int
	inlinable   int
	inlineSites []int
}

var (
	noInlineRE  = regexp.MustCompile(`no inlining:\s+(\d+) bytes`)
	heuristicRE = regexp.MustCompile(`-Os heuristic:\s+(\d+) bytes`)
	optimalRE   = regexp.MustCompile(`optimal:\s+(\d+) bytes, inlining (\d+) of (\d+) sites`)
	sitesRE     = regexp.MustCompile(`optimal inline sites: \[([0-9 ]*)\]`)
)

func parseSearchCLI(t *testing.T, out string) searchCLIReport {
	t.Helper()
	var rep searchCLIReport
	grab := func(re *regexp.Regexp, n int) []int {
		m := re.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("inlinesearch output missing %v:\n%s", re, out)
		}
		vals := make([]int, n)
		for i := 0; i < n; i++ {
			v, err := strconv.Atoi(m[i+1])
			if err != nil {
				t.Fatalf("parse %q: %v", m[i+1], err)
			}
			vals[i] = v
		}
		return vals
	}
	rep.noInline = grab(noInlineRE, 1)[0]
	rep.heuristic = grab(heuristicRE, 1)[0]
	opt := grab(optimalRE, 3)
	rep.optimal, rep.inlined, rep.inlinable = opt[0], opt[1], opt[2]
	m := sitesRE.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("inlinesearch output missing inline sites:\n%s", out)
	}
	for _, fld := range strings.Fields(m[1]) {
		v, err := strconv.Atoi(fld)
		if err != nil {
			t.Fatalf("parse site %q: %v", fld, err)
		}
		rep.inlineSites = append(rep.inlineSites, v)
	}
	return rep
}

// TestInlinedDaemonMatchesBatchCLI replays the example corpus through a
// real daemon and demands the same numbers `inlinesearch` prints when run
// directly on each file.
func TestInlinedDaemonMatchesBatchCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon e2e test")
	}
	dir := t.TempDir()
	inlined := buildTool(t, dir, "inlined")
	cacheDir := filepath.Join(dir, "cache")
	d := startDaemon(t, inlined, "-cache-dir", cacheDir)

	files, err := filepath.Glob(filepath.Join("examples", "minc", "*.minc"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example files: %v", err)
	}
	for _, file := range files {
		cliOut, _ := runCLISplit(t, "./cmd/inlinesearch", file)
		want := parseSearchCLI(t, cliOut)

		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("read %s: %v", file, err)
		}
		status, body := postJSON(t, d.url("/search"), server.SearchRequest{
			Name: filepath.Base(file), Source: string(src), MaxSpace: 1 << 20,
		})
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", file, status, body)
		}
		var resp server.SearchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("%s: bad JSON: %v", file, err)
		}
		if !resp.Searched {
			t.Fatalf("%s: daemon did not search", file)
		}
		if resp.NoInlineSize != want.noInline || resp.HeuristicSize != want.heuristic || resp.OptimalSize != want.optimal {
			t.Errorf("%s: daemon sizes (%d,%d,%d) != inlinesearch (%d,%d,%d)", file,
				resp.NoInlineSize, resp.HeuristicSize, resp.OptimalSize,
				want.noInline, want.heuristic, want.optimal)
		}
		if resp.InlinableSites != want.inlinable || len(resp.InlineSites) != want.inlined {
			t.Errorf("%s: daemon sites %d/%d != inlinesearch %d/%d", file,
				len(resp.InlineSites), resp.InlinableSites, want.inlined, want.inlinable)
		}
		for i, site := range want.inlineSites {
			if i >= len(resp.InlineSites) || resp.InlineSites[i] != site {
				t.Errorf("%s: daemon inline sites %v != inlinesearch %v", file, resp.InlineSites, want.inlineSites)
				break
			}
		}
	}

	// The daemon's store must have persisted records with the v2 magic.
	// (SIGTERM-free check: appends are incremental, not exit-time.)
	data, err := os.ReadFile(filepath.Join(cacheDir, "fncache-v2.log"))
	if err != nil {
		t.Fatalf("cache store not written: %v", err)
	}
	if !bytes.HasPrefix(data, []byte("OPTFNC2\n")) {
		t.Fatalf("cache store has wrong magic: %q", data[:16])
	}

	// Graceful exit flushes and the process leaves with status 0.
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	if err := d.wait(); err != nil {
		t.Fatalf("inlined exit after SIGTERM: %v\nstderr:\n%s", err, d.logs)
	}
}

// TestInlinedLoadReplayE2E drives the real inlineload binary against a
// real daemon — the acceptance scenario at CI scale: concurrent clients,
// byte-identity across clients, sizes equal to single-threaded local runs.
func TestInlinedLoadReplayE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon e2e test")
	}
	dir := t.TempDir()
	inlined := buildTool(t, dir, "inlined")
	inlineload := buildTool(t, dir, "inlineload")
	d := startDaemon(t, inlined, "-cache-dir", filepath.Join(dir, "cache"))

	cmd := exec.Command(inlineload, "-addr", d.addr, "-smoke")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("inlineload -smoke: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "verify: all responses byte-identical") {
		t.Fatalf("inlineload did not report verification:\n%s", out)
	}

	// /stats after the replay: counters must be present and balanced.
	resp, err := http.Get(d.url("/stats"))
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	resp.Body.Close()
	if st.Queue.Busy != 0 || st.Queue.Queued != 0 {
		t.Errorf("after replay: busy=%d queued=%d, want 0/0", st.Queue.Busy, st.Queue.Queued)
	}
	if st.Compilers.Built == 0 || st.FnCache.Stored == 0 {
		t.Errorf("after replay: compilers.built=%d fnCache.stored=%d, want > 0", st.Compilers.Built, st.FnCache.Stored)
	}
}

// TestInlinedGracefulDrain checks the two-phase SIGTERM story on a real
// process: the in-flight request finishes with 200, /healthz and new work
// answer 503 while it does, and the daemon exits cleanly.
func TestInlinedGracefulDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon e2e test")
	}
	dir := t.TempDir()
	inlined := buildTool(t, dir, "inlined")
	d := startDaemon(t, inlined, "-allow-delay")

	src, err := os.ReadFile(filepath.Join("examples", "minc", "fib.minc"))
	if err != nil {
		t.Fatalf("read example: %v", err)
	}

	type result struct {
		status int
		body   []byte
	}
	inflight := make(chan result, 1)
	go func() {
		status, body := postJSON(t, d.url("/compile"), server.CompileRequest{
			Name: "fib.minc", Source: string(src), Inline: "none", DelayMs: 1500,
		})
		inflight <- result{status, body}
	}()

	// Wait until the slow request is admitted, then pull the trigger.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(d.url("/stats"))
		if err != nil {
			t.Fatalf("GET /stats: %v", err)
		}
		var st server.StatsResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err == nil && st.Queue.Busy > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("in-flight request never admitted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}

	// While the in-flight delay runs, the daemon must be refusing traffic.
	var sawHealth503, sawWork503 bool
	for time.Now().Before(deadline) && (!sawHealth503 || !sawWork503) {
		if resp, err := http.Get(d.url("/healthz")); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable {
				sawHealth503 = true
			}
		}
		payload, _ := json.Marshal(server.CompileRequest{Name: "fib.minc", Source: string(src), Inline: "none"})
		if resp, err := http.Post(d.url("/compile"), "application/json", bytes.NewReader(payload)); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable {
				sawWork503 = true
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !sawHealth503 || !sawWork503 {
		t.Errorf("during drain: healthz503=%v work503=%v, want both true", sawHealth503, sawWork503)
	}

	r := <-inflight
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d: %s", r.status, r.body)
	}
	var cr server.CompileResponse
	if err := json.Unmarshal(r.body, &cr); err != nil || cr.Size == 0 {
		t.Fatalf("in-flight response malformed: %s", r.body)
	}
	if err := d.wait(); err != nil {
		t.Fatalf("inlined exit after drain: %v\nstderr:\n%s", err, d.logs)
	}
	if !strings.Contains(d.logs.String(), "drained") {
		t.Errorf("daemon never logged the drain; stderr:\n%s", d.logs)
	}
}

// TestInlinedOfflineCompaction exercises `inlined -compact` on a store a
// previous daemon wrote: the compacted log must reload with zero
// duplicates and corruption, and re-compacting is byte-stable.
func TestInlinedOfflineCompaction(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon e2e test")
	}
	dir := t.TempDir()
	inlined := buildTool(t, dir, "inlined")
	cacheDir := filepath.Join(dir, "cache")
	d := startDaemon(t, inlined, "-cache-dir", cacheDir)

	src, err := os.ReadFile(filepath.Join("examples", "minc", "fib.minc"))
	if err != nil {
		t.Fatalf("read example: %v", err)
	}
	status, body := postJSON(t, d.url("/search"), server.SearchRequest{
		Name: "fib.minc", Source: string(src), MaxSpace: 1 << 20,
	})
	if status != http.StatusOK {
		t.Fatalf("search: status %d: %s", status, body)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	if err := d.wait(); err != nil {
		t.Fatalf("inlined exit: %v", err)
	}

	storePath := filepath.Join(cacheDir, "fncache-v2.log")
	compact := func() []byte {
		out, err := exec.Command(inlined, "-compact", "-cache-dir", cacheDir).CombinedOutput()
		if err != nil {
			t.Fatalf("inlined -compact: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "compacted") {
			t.Fatalf("compaction did not report:\n%s", out)
		}
		data, err := os.ReadFile(storePath)
		if err != nil {
			t.Fatalf("read store: %v", err)
		}
		return data
	}
	first := compact()
	second := compact()
	if !bytes.Equal(first, second) {
		t.Error("compaction is not byte-stable across runs")
	}
	if len(first) <= len("OPTFNC2\n") {
		t.Errorf("compacted store suspiciously small: %d bytes", len(first))
	}
}
