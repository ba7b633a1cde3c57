package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"optinline/internal/server"
)

// op is one prepared request; its payload is marshaled before any timing.
type op struct {
	key  string // names the answer: every send of one key must get the same bytes
	kind string // endpoint label: search, tune, tune.weighted, compile, link.*
	path string // URL path; "{id}" stands for the sending client's link session
	body []byte
	u    *unit // the unit the request carries; nil when it carries none
}

func newOp(key, kind, path string, req any, u *unit) *op {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // the request types are plain structs; Marshal cannot fail on them
	}
	return &op{key: key, kind: kind, path: path, body: body, u: u}
}

// sample is one request as its client saw it.
type sample struct {
	op     *op
	client int
	lat    time.Duration
	status int
	body   []byte
	err    error
	req    int64 // trace request id, 0 when untraced
	span   int   // client span index, -1 when untraced
}

// daemon is the inlined handler tree behind a loopback listener, in this
// process; the benchmark reaches it only over HTTP.
type daemon struct {
	srv    *http.Server
	base   string
	served chan struct{}
}

// startDaemon starts a fresh daemon with one job token, so concurrent
// requests queue for it. A non-nil tracer times every ServeHTTP.
func startDaemon(tr *tracer) (*daemon, error) {
	var h http.Handler = server.New(server.Config{Jobs: 1}).Handler()
	if tr != nil {
		h = tr.wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	d := &daemon{srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), served: make(chan struct{})}
	go func() {
		defer close(d.served)
		d.srv.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	return d, nil
}

// stop closes the listener and every connection, then waits for Serve to
// return.
func (d *daemon) stop() {
	d.srv.Close()
	<-d.served
}

// client is one closed-loop load generator: it sends its next request only
// when the previous answer has arrived.
type client struct {
	id      int
	session string // the link session it owns (serve-edit)
	base    string
	hc      *http.Client
	tr      *tracer
}

func newClient(d *daemon, id int, tr *tracer) *client {
	return &client{
		id: id, session: fmt.Sprintf("edit-%d", id), base: d.base, tr: tr,
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// send posts o and reads the whole answer; the latency covers both.
func (c *client) send(o *op) sample {
	s := sample{op: o, client: c.id, span: -1}
	url := c.base + strings.Replace(o.path, "{id}", c.session, 1)
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(o.body))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	if c.tr.on() {
		s.req = c.tr.reqs.Add(1)
		s.span = c.tr.open(s.req, "client."+o.kind, -1)
		req.Header.Set(spanHeader, strconv.Itoa(s.span))
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err == nil {
		s.status = resp.StatusCode
		s.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.lat = time.Since(t0)
	if s.span >= 0 {
		c.tr.close(s.span)
	}
	s.err = err
	return s
}

// get fetches path and decodes its JSON answer into v; a nil v discards it.
func (c *client) get(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// stats fetches the daemon's /stats counters.
func (c *client) stats() (counts, error) {
	var st server.StatsResponse
	if err := c.get("/stats", &st); err != nil {
		return nil, err
	}
	return countersOf(st), nil
}

// runPass sends every client its op list, one closed-loop goroutine per
// client, and returns the samples and the wall time from the first send to
// the last answer.
func runPass(clients []*client, lists [][]*op) ([]sample, time.Duration) {
	per := make([][]sample, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for _, o := range lists[i] {
				per[i] = append(per[i], c.send(o))
			}
		}(i, c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, wall
}

// spanHeader carries the client span's index to the server-side wrapper,
// which records the ServeHTTP span as its child.
const spanHeader = "X-Perfbench-Span"

// span is one timed call. The spans of one request share Req; Parent
// indexes the span list, -1 for a root.
type span struct {
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory; the run writes them out when it ends.
// Spans are recorded only while it is enabled.
type tracer struct {
	enabled atomic.Bool
	epoch   time.Time
	reqs    atomic.Int64
	mu      sync.Mutex
	spans   []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) on() bool { return t != nil && t.enabled.Load() }

func (t *tracer) open(req int64, name string, parent int) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Req: req, Name: name, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

func (t *tracer) close(i int) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// timed runs f as a span under parent and returns its duration.
func (t *tracer) timed(req int64, name string, parent int, f func()) time.Duration {
	i := t.open(req, name, parent)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	t.close(i)
	return d
}

// wrap times every ServeHTTP whose request names its client span.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil || !t.on() {
			h.ServeHTTP(w, r)
			return
		}
		t.mu.Lock()
		ok := parent >= 0 && parent < len(t.spans)
		var ps span
		if ok {
			ps = t.spans[parent]
		}
		t.mu.Unlock()
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		i := t.open(ps.Req, "server."+strings.TrimPrefix(ps.Name, "client."), parent)
		h.ServeHTTP(w, r)
		t.close(i)
	})
}

// layerTime is the self time of every span of one name.
type layerTime struct {
	name  string
	count int
	self  time.Duration
}

// selfTimes returns each span name's total self time — its spans'
// durations minus the parts of them their children cover — largest first.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if p := s.Parent; p >= 0 {
			lo, hi := max(s.Start, spans[p].Start), min(s.End, spans[p].End)
			if hi > lo {
				self[p] -= hi - lo
			}
		}
	}
	by := map[string]*layerTime{}
	var out []*layerTime
	for i, s := range spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{name: s.Name}
			by[s.Name] = lt
			out = append(out, lt)
		}
		lt.count++
		lt.self += time.Duration(self[i])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	res := make([]layerTime, len(out))
	for i, lt := range out {
		res[i] = *lt
	}
	return res
}

// save writes the spans as JSON under outDir.
func (t *tracer) save(name string) {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode spans:", err)
		return
	}
	save(name, data)
}
