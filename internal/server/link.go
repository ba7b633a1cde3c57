package server

import (
	"errors"
	"net/http"
	"sync"

	"optinline/internal/codegen"
	"optinline/internal/link"
	"optinline/internal/source"
)

// The /link endpoints expose incremental re-link sessions: POST /link
// resolves a multi-unit plan once, then /link/{id}/patch swaps one unit's
// contents and /link/{id}/search|tune answer from the session — re-solving
// only components whose content key changed, replaying the rest from the
// process-wide result cache shared by every session. Responses stay pure
// functions of the session contents (the concurrency tier byte-compares
// them); replay and cache counters are on GET /stats.

// linkSession is one registered re-link session. link.Session serializes
// its own methods, so concurrent requests to one id are safe (their
// interleaving is the client's choice).
type linkSession struct {
	id     string
	target codegen.Target
	sess   *link.Session
}

// linkRegistry is the FIFO-bounded id → session table.
type linkRegistry struct {
	mu       sync.Mutex
	sessions map[string]*linkSession
	order    []string // insertion order; exact (entries removed on delete/replace)
	created  int64
	replaced int64
	evicted  int64
	retired  link.RelinkStats
}

func addRelink(a, b link.RelinkStats) link.RelinkStats {
	a.Patches += b.Patches
	a.PlanReuses += b.PlanReuses
	a.PlanRebuilds += b.PlanRebuilds
	a.Searches += b.Searches
	a.Tunes += b.Tunes
	return a
}

func (reg *linkRegistry) removeOrderLocked(id string) {
	for i, o := range reg.order {
		if o == id {
			reg.order = append(reg.order[:i], reg.order[i+1:]...)
			return
		}
	}
}

// put registers a session, replacing any existing session with the same id
// (its counters are folded into the retired aggregate) and evicting the
// oldest sessions beyond the bound.
func (reg *linkRegistry) put(ls *linkSession, bound int) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if old, ok := reg.sessions[ls.id]; ok {
		reg.retired = addRelink(reg.retired, old.sess.Stats())
		reg.replaced++
		reg.removeOrderLocked(ls.id)
	}
	reg.sessions[ls.id] = ls
	reg.order = append(reg.order, ls.id)
	reg.created++
	for len(reg.sessions) > bound && len(reg.order) > 0 {
		victim := reg.order[0]
		reg.order = reg.order[1:]
		if old, ok := reg.sessions[victim]; ok {
			reg.retired = addRelink(reg.retired, old.sess.Stats())
			delete(reg.sessions, victim)
			reg.evicted++
		}
	}
}

func (reg *linkRegistry) get(id string) *linkSession {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return reg.sessions[id]
}

func (reg *linkRegistry) remove(id string) bool {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	ls, ok := reg.sessions[id]
	if !ok {
		return false
	}
	reg.retired = addRelink(reg.retired, ls.sess.Stats())
	delete(reg.sessions, id)
	reg.removeOrderLocked(id)
	return true
}

// stats aggregates the registry counters and the RelinkStats of every
// session ever created (live + retired).
func (reg *linkRegistry) stats() LinkSessionPoolStats {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	rel := reg.retired
	for _, ls := range reg.sessions {
		rel = addRelink(rel, ls.sess.Stats())
	}
	return LinkSessionPoolStats{
		Live:     len(reg.sessions),
		Created:  reg.created,
		Replaced: reg.replaced,
		Evicted:  reg.evicted,

		Patches:      rel.Patches,
		PlanReuses:   rel.PlanReuses,
		PlanRebuilds: rel.PlanRebuilds,
		Searches:     rel.Searches,
		Tunes:        rel.Tunes,
	}
}

func planSummary(p *link.Plan) LinkPlanSummary {
	return LinkPlanSummary{
		TUs:           len(p.TUs),
		Functions:     len(p.Funcs),
		Sites:         len(p.Edges),
		CrossTU:       p.CrossTU,
		Renamed:       p.Renamed,
		ExternalCalls: p.ExternalCalls,
		Components:    len(p.Components),
	}
}

// parseUnit validates and parses one unit. The bool reports success; on
// failure the response has been written.
func (s *Server) parseUnit(w http.ResponseWriter, ep *endpointCounters, u LinkUnit) (link.TU, bool) {
	if u.Name == "" || u.Source == "" {
		s.fail(w, ep, http.StatusBadRequest, "unit name and source are required")
		return link.TU{}, false
	}
	mod, err := source.FromBytes(u.Name, []byte(u.Source))
	if err != nil {
		s.fail(w, ep, http.StatusUnprocessableEntity, "parse %s: %v", u.Name, err)
		return link.TU{}, false
	}
	return link.ModuleTU(u.Name, mod), true
}

func (s *Server) handleLinkCreate(w http.ResponseWriter, r *http.Request) {
	ep := s.ep("link")
	ep.count.Add(1)
	var req LinkCreateRequest
	if !s.decode(w, r, ep, &req) {
		return
	}
	wr, ok := s.admit(w, r, ep, req.Jobs, req.DelayMs)
	if !ok {
		return
	}
	defer wr.release()

	target, err := codegen.ParseTarget(req.Target)
	if err != nil {
		s.fail(w, wr.ep, http.StatusBadRequest, "%v", err)
		return
	}
	dup, err := link.ParseDupPolicy(req.DupPolicy)
	if err != nil {
		s.fail(w, wr.ep, http.StatusBadRequest, "%v", err)
		return
	}
	if req.ID == "" {
		s.fail(w, wr.ep, http.StatusBadRequest, "id is required")
		return
	}
	if len(req.Units) == 0 {
		s.fail(w, wr.ep, http.StatusBadRequest, "units are required")
		return
	}
	seen := make(map[string]bool, len(req.Units))
	tus := make([]link.TU, 0, len(req.Units))
	for _, u := range req.Units {
		if seen[u.Name] {
			s.fail(w, wr.ep, http.StatusBadRequest, "duplicate unit name %q", u.Name)
			return
		}
		seen[u.Name] = true
		tu, ok := s.parseUnit(w, wr.ep, u)
		if !ok {
			return
		}
		tus = append(tus, tu)
	}
	sess, err := link.NewSession(tus, link.SessionOptions{
		Link:    link.Options{DupExported: dup},
		Results: s.relinkCache,
	})
	if err != nil {
		s.fail(w, wr.ep, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	s.linkReg.put(&linkSession{id: req.ID, target: target, sess: sess}, s.cfg.MaxLinkSessions)
	writeJSON(w, http.StatusOK, LinkCreateResponse{
		ID:     req.ID,
		Target: target.String(),
		Plan:   planSummary(sess.Plan()),
	})
}

func (s *Server) handleLinkPatch(w http.ResponseWriter, r *http.Request) {
	ep := s.ep("link.patch")
	ep.count.Add(1)
	var req LinkPatchRequest
	if !s.decode(w, r, ep, &req) {
		return
	}
	wr, ok := s.admit(w, r, ep, req.Jobs, req.DelayMs)
	if !ok {
		return
	}
	defer wr.release()

	id := r.PathValue("id")
	ls := s.linkReg.get(id)
	if ls == nil {
		s.fail(w, wr.ep, http.StatusNotFound, "no link session %q", id)
		return
	}
	tu, ok := s.parseUnit(w, wr.ep, req.Unit)
	if !ok {
		return
	}
	rep, err := ls.sess.ReplaceNamed(tu)
	if err != nil {
		s.fail(w, wr.ep, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, LinkPatchResponse{
		ID:         id,
		Unit:       rep.TU,
		PlanReused: rep.PlanReused,
		Plan:       planSummary(ls.sess.Plan()),
	})
}

func (s *Server) handleLinkSearch(w http.ResponseWriter, r *http.Request) {
	ep := s.ep("link.search")
	ep.count.Add(1)
	var req LinkSearchRequest
	if !s.decode(w, r, ep, &req) {
		return
	}
	wr, ok := s.admit(w, r, ep, req.Jobs, req.DelayMs)
	if !ok {
		return
	}
	defer wr.release()

	id := r.PathValue("id")
	ls := s.linkReg.get(id)
	if ls == nil {
		s.fail(w, wr.ep, http.StatusNotFound, "no link session %q", id)
		return
	}
	maxSpace := req.MaxSpace
	if maxSpace == 0 {
		maxSpace = s.cfg.DefaultMaxSpace
	}
	res, _, searched, err := ls.sess.Search(link.SearchOptions{
		ShardOptions: link.ShardOptions{
			Target:  ls.target,
			Compile: s.compileOptions(),
			Workers: wr.jobs,
		},
		MaxSpace: maxSpace,
	})
	if err != nil {
		s.fail(w, wr.ep, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	resp := LinkSearchResponse{
		ID:         id,
		Target:     ls.target.String(),
		Searched:   searched,
		SpaceTotal: res.SpaceTotal,
		Components: make([]LinkComponentStat, 0, len(res.Components)),
	}
	for _, cs := range res.Components {
		resp.InlinableSites += cs.Edges
		resp.Components = append(resp.Components, LinkComponentStat{
			Index:     cs.Index,
			Funcs:     cs.Funcs,
			Sites:     cs.Edges,
			Space:     cs.Space,
			Capped:    cs.Capped,
			Inlined:   cs.Inlined,
			SizeDelta: cs.SizeDelta,
		})
	}
	if searched {
		resp.NoInlineSize = res.NoInlineSize
		resp.OptimalSize = res.Size
		resp.InlineSites = res.Config.InlineSites()
		resp.ConfigKey = res.Config.Key()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleLinkTune(w http.ResponseWriter, r *http.Request) {
	ep := s.ep("link.tune")
	ep.count.Add(1)
	var req LinkTuneRequest
	if !s.decode(w, r, ep, &req) {
		return
	}
	wr, ok := s.admit(w, r, ep, req.Jobs, req.DelayMs)
	if !ok {
		return
	}
	defer wr.release()

	id := r.PathValue("id")
	ls := s.linkReg.get(id)
	if ls == nil {
		s.fail(w, wr.ep, http.StatusNotFound, "no link session %q", id)
		return
	}
	mode, err := parseTuneMode(req.Init, req.Objective)
	if err != nil {
		s.fail(w, wr.ep, http.StatusBadRequest, "%v", err)
		return
	}
	rounds := req.Rounds
	if rounds <= 0 {
		rounds = 4
	}
	tr, _, err := ls.sess.Tune(link.TuneOptions{
		ShardOptions: link.ShardOptions{
			Target:  ls.target,
			Compile: s.compileOptions(),
			Workers: wr.jobs,
		},
		Rounds:    rounds,
		Init:      mode.init,
		Objective: mode.objective,
	})
	if err != nil {
		var cyc *link.CycleObjectiveError
		if errors.As(err, &cyc) {
			s.fail(w, wr.ep, http.StatusBadRequest, "%v", err)
			return
		}
		s.fail(w, wr.ep, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	resp := LinkTuneResponse{
		ID:          id,
		Target:      ls.target.String(),
		Init:        mode.initName,
		InitSize:    tr.Result.InitSize,
		BestSize:    tr.Result.Size,
		FinalSize:   tr.Result.FinalSize,
		InlineSites: tr.Result.Config.InlineSites(),
		ConfigKey:   tr.Result.Config.Key(),
		Components:  make([]LinkTuneComponent, 0, len(tr.Components)),
	}
	for _, rt := range tr.Result.Rounds {
		resp.Rounds = append(resp.Rounds, TuneRound{
			Round: rt.Round, Size: rt.Size, Inlined: rt.Inlined,
			NotInlined: rt.NotInlined, Toggles: rt.Toggles,
		})
	}
	for _, cs := range tr.Components {
		resp.InlinableSites += cs.Edges
		resp.Components = append(resp.Components, LinkTuneComponent{
			Index: cs.Index, Funcs: cs.Funcs, Sites: cs.Edges, Inlined: cs.Inlined,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleLinkDelete(w http.ResponseWriter, r *http.Request) {
	ep := s.ep("link.delete")
	ep.count.Add(1)
	id := r.PathValue("id")
	if !s.linkReg.remove(id) {
		s.fail(w, ep, http.StatusNotFound, "no link session %q", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": "deleted"})
}
