package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/link"
	"optinline/internal/search"
	"optinline/internal/server"
	"optinline/internal/source"
)

const (
	serveClients = 2
	// linkEvery interleaves one /link patch+tune pair after every this many
	// file requests: the recorded share of linked traffic.
	linkEvery = 10
	// linkRounds is the autotuner rounds of every /link tune.
	linkRounds = 2
)

// serveState carries serve-edit's inputs from pass to pass: every file's
// latest variant and the linked units' latest contents.
type serveState struct {
	files   []*unit
	linked  []*unit
	edits   int
	renames int
	reused  map[string]bool // patch op key → whether the plan must be reused
	ops     []*op           // every distinct op of every pass, for the gate
}

// lists builds pass k's op lists. Every file arrives as its k-th edited
// variant (pass 0 sends the originals) through /compile inline=tune and
// /search, each client walking the list from its own offset; one /link
// patch+tune pair follows every linkEvery file requests, in script order,
// the same for both clients, whose sessions so stay in step.
func (st *serveState) lists(k int) [][]*op {
	if k > 0 {
		for i, u := range st.files {
			st.files[i] = edited(u, 3*k)
		}
	}
	var fileOps []*op
	for _, u := range st.files {
		key := fmt.Sprintf("p%d/%s", k, u.name)
		fileOps = append(fileOps,
			newOp(key+"/compile", "compile", "/compile",
				server.CompileRequest{Name: u.name, Source: u.src, Inline: "tune", Jobs: 1}, u),
			newOp(key+"/search", "search", "/search",
				server.SearchRequest{Name: u.name, Source: u.src, MaxSpace: serveCap, Jobs: 1}, u))
	}
	var linkOps []*op
	for l := 0; l < len(fileOps)/linkEvery; l++ {
		key := fmt.Sprintf("p%d/link%02d", k, l)
		u, rename := st.nextEdit()
		st.reused[key+"/patch"] = !rename
		linkOps = append(linkOps,
			newOp(key+"/patch", "link.patch", "/link/{id}/patch",
				server.LinkPatchRequest{Unit: server.LinkUnit{Name: u.name, Source: u.src}, Jobs: 1}, u),
			newOp(key+"/tune", "link.tune", "/link/{id}/tune",
				server.LinkTuneRequest{Rounds: linkRounds, Jobs: 1}, nil))
	}
	st.ops = append(append(st.ops, fileOps...), linkOps...)
	lists := make([][]*op, serveClients)
	for c := range lists {
		off, next := c*len(fileOps)/serveClients, 0
		for i := range fileOps {
			lists[c] = append(lists[c], fileOps[(off+i)%len(fileOps)])
			if (i+1)%linkEvery == 0 && next < len(linkOps) {
				lists[c] = append(lists[c], linkOps[next:next+2]...)
				next += 2
			}
		}
	}
	return lists
}

// nextEdit draws the script's next edit to the linked units: two body
// edits (the plan is reused) for every rename of a local function (the
// plan is rebuilt), on a unit that strides through the link. It never
// draws MutateLinkedTU's third kind, which exports a local function: that
// name can collide with an exported one in another unit, a duplicate
// symbol the session must refuse, so a script of the first two kinds
// cannot fail.
func (st *serveState) nextEdit() (*unit, bool) {
	j := st.edits
	st.edits++
	t := (7 * j) % len(st.linked)
	rename := j%3 == 2
	s := 3 * (j + 1) // kind 0: bump a constant
	if rename {
		s++ // kind 1: rename a local function and its calls
		st.renames++
	}
	st.linked[t] = edited(st.linked[t], s)
	return st.linked[t], rename
}

// runServeEdit: a warm daemon, two closed-loop clients sharing its one job
// token, edited files through /compile and /search, linked-x10 edits
// through each client's own /link session.
func runServeEdit(seed int64, o runOpts) (*report, error) {
	st := &serveState{files: specCorpus(seed, serveScale, serveCap), linked: linkedUnits(seed), reused: map[string]bool{}}
	r := newReport("serve-edit", seed, o)
	r.describe("files", st.files)
	r.describe("linked", st.linked)
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}

	t0 := time.Now()
	dmn, err := startDaemon(tr)
	if err != nil {
		return nil, err
	}
	defer dmn.stop()
	clients := make([]*client, serveClients)
	for i := range clients {
		clients[i] = newClient(dmn, i, tr)
		defer clients[i].close()
	}
	if err := clients[0].get("/healthz", nil); err != nil {
		return nil, fmt.Errorf("daemon not ready: %w", err)
	}
	// Set-up: every client opens and primes its session, then a warm-up
	// pass fills the caches. None of it is timed; all of it is setup_s.
	wire := make([]server.LinkUnit, len(st.linked))
	for i, u := range st.linked {
		wire[i] = server.LinkUnit{Name: u.name, Source: u.src}
	}
	open := make([][]*op, serveClients)
	for i, c := range clients {
		open[i] = []*op{
			newOp("link.create", "link.create", "/link", server.LinkCreateRequest{ID: c.session, Units: wire, Jobs: 1}, nil),
			newOp("link.prime", "link.tune", "/link/{id}/tune", server.LinkTuneRequest{Rounds: linkRounds, Jobs: 1}, nil),
		}
	}
	samples, _ := runPass(clients, open)
	r.answers.add(samples)
	samples, _ = runPass(clients, st.lists(0))
	r.answers.add(samples)
	setup := time.Since(t0)

	d := o.seconds
	if o.traced {
		d /= 2
	}
	k := 1
	var ph phase
	for len(ph.walls) == 0 || ph.wall() < d {
		lists := st.lists(k)
		r.answers.add(ph.measure(clients, lists))
		k++
	}
	r.timing(ph, []time.Duration{setup})
	r.record["linkEvery"] = linkEvery
	if o.traced {
		before, err := clients[0].stats()
		if err != nil {
			return nil, err
		}
		tr.enabled.Store(true)
		var tph phase
		for len(tph.walls) == 0 || tph.wall() < d {
			lists := st.lists(k)
			r.answers.add(tph.measure(clients, lists))
			k++
		}
		tr.enabled.Store(false)
		after, err := clients[0].stats()
		if err != nil {
			return nil, err
		}
		tph.stats = after.sub(before)
		r.traced = &tracedRun{untraced: ph, traced: tph, tr: tr}
	}
	r.record["linkEdits"] = map[string]int{"body": st.edits - st.renames, "rename": st.renames}

	r.checkServe(st)
	if o.traced {
		r.layers()
	}
	return r, nil
}

// checkServe is serve-edit's gate. code_bytes and run_cycles cover the
// first timed pass: a fixed set of answers, whatever the number of passes.
func (r *report) checkServe(st *serveState) {
	var q quality
	var lastTune *op
	parallel(len(st.ops), func(i int) {
		o := st.ops[i]
		first := strings.HasPrefix(o.key, "p1/")
		switch o.kind {
		case "compile":
			var resp server.CompileResponse
			var srch server.SearchResponse
			if !r.decode(o, &resp) {
				return
			}
			p := r.gate.checkProgram(o.key, o.u.mod, resp.InlineSites, resp.Size)
			sk := &op{key: strings.TrimSuffix(o.key, "/compile") + "/search"}
			if r.decode(sk, &srch) && (resp.Size > srch.HeuristicSize || srch.OptimalSize > resp.Size) {
				r.gate.fail("%s: tuned %d outside [optimal %d, heuristic %d]", o.key, resp.Size, srch.OptimalSize, srch.HeuristicSize)
			}
			if first {
				q.add(p, true)
			}
		case "search":
			var resp server.SearchResponse
			if !r.decode(o, &resp) {
				return
			}
			if !resp.Searched || resp.OptimalSize > resp.HeuristicSize || resp.OptimalSize > resp.NoInlineSize {
				r.gate.fail("%s: searched %v, optimal %d, heuristic %d, no-inline %d",
					o.key, resp.Searched, resp.OptimalSize, resp.HeuristicSize, resp.NoInlineSize)
				return
			}
			if o.u.sites <= naiveSites {
				_, naive := search.NaiveOptimal(compile.New(o.u.mod, codegen.TargetX86))
				r.gate.expect(o.key+": optimum vs NaiveOptimal", resp.OptimalSize, naive)
			}
			r.gate.checkProgram(o.key, o.u.mod, resp.InlineSites, resp.OptimalSize)
		case "link.patch":
			var resp server.LinkPatchResponse
			if r.decode(o, &resp) && resp.PlanReused != st.reused[o.key] {
				r.gate.fail("%s: planReused %v, the edit kind says %v", o.key, resp.PlanReused, st.reused[o.key])
			}
		case "link.tune":
			var resp server.LinkTuneResponse
			if !r.decode(o, &resp) {
				return
			}
			if resp.BestSize > resp.InitSize {
				r.gate.fail("%s: tuned size %d exceeds the init's %d", o.key, resp.BestSize, resp.InitSize)
			}
			if first {
				q.add(program{size: resp.FinalSize}, false)
			}
		}
	})
	for _, o := range st.ops {
		if o.kind == "link.tune" {
			lastTune = o
		}
	}
	r.quality(&q)
	// The sampled reference: the last session tune must equal a cold link
	// of the units as they stand, tuned with fresh caches.
	var resp server.LinkTuneResponse
	if lastTune == nil || !r.decode(lastTune, &resp) {
		return
	}
	cold, err := coldLinkTune(st.linked)
	switch {
	case err != nil:
		r.gate.fail("%s: cold link tune: %v", lastTune.key, err)
	case resp.BestSize != cold.Result.Size || resp.FinalSize != cold.Result.FinalSize ||
		resp.ConfigKey != cold.Result.Config.Key():
		r.gate.fail("%s: session best/final %d/%d, cold link %d/%d (keys equal: %v)", lastTune.key,
			resp.BestSize, resp.FinalSize, cold.Result.Size, cold.Result.FinalSize, resp.ConfigKey == cold.Result.Config.Key())
	default:
		r.record["coldLinkChecked"] = lastTune.key
	}
}

// coldLinkTune links units from their sources with a new linker and tunes
// the result with fresh caches.
func coldLinkTune(units []*unit) (link.TuneResult, error) {
	tus := make([]link.TU, len(units))
	for i, u := range units {
		m, err := source.FromBytes(u.name, []byte(u.src))
		if err != nil {
			return link.TuneResult{}, err
		}
		tus[i] = link.ModuleTU(u.name, m)
	}
	l, err := link.New(tus, link.Options{Summaries: link.NewSummaryCache()})
	if err != nil {
		return link.TuneResult{}, err
	}
	return l.Tune(link.TuneOptions{
		ShardOptions: link.ShardOptions{
			Target:  codegen.TargetX86,
			Compile: compile.Options{FnCache: compile.NewFnCache()},
			Workers: runtime.GOMAXPROCS(0),
		},
		Rounds: linkRounds,
		Init:   link.InitOs,
	})
}
