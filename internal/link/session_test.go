package link

import (
	"errors"
	"reflect"
	"testing"

	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/ir"
	"optinline/internal/workload"
)

// relinkFixture holds an editable multi-TU corpus: the current contents of
// every unit, from which it can hand out fresh TU lists for a session and
// for cold oracle links.
type relinkFixture struct {
	names  []string
	mods   []*ir.Module
	shared *SummaryCache
	fnc    *compile.FnCache
}

func newRelinkFixture(t testing.TB) *relinkFixture {
	t.Helper()
	lp := workload.LinkedProfile{
		Name:       "linked-tiny",
		TUs:        4,
		EdgesPerTU: 5,
		Cluster:    2,
		ExtCalls:   2,
		Shape: workload.Profile{
			ConstArgProb: 0.3,
			HubProb:      0.05,
			BigBodyProb:  0.1,
			LoopProb:     0.15,
			RecProb:      0.05,
			BranchProb:   0.3,
		},
	}
	fx := &relinkFixture{shared: NewSummaryCache(), fnc: compile.NewFnCache()}
	for _, f := range workload.GenerateLinked(lp).Files {
		fx.names = append(fx.names, f.Name)
		fx.mods = append(fx.mods, f.Module)
	}
	return fx
}

func (fx *relinkFixture) tus() []TU {
	out := make([]TU, len(fx.mods))
	for i, m := range fx.mods {
		tu := ModuleTU(fx.names[i], m)
		tu.LocalGlobals = []string{workload.LinkedScratchGlobal}
		out[i] = tu
	}
	return out
}

func (fx *relinkFixture) patchTU(i, seed int) TU {
	fx.mods[i] = workload.MutateLinkedTU(fx.mods[i], seed)
	tu := ModuleTU(fx.names[i], fx.mods[i])
	tu.LocalGlobals = []string{workload.LinkedScratchGlobal}
	return tu
}

func (fx *relinkFixture) linkOptions() Options {
	return Options{DupExported: DupExportedRename, Summaries: fx.shared}
}

func (fx *relinkFixture) searchOptions(jobs int) SearchOptions {
	return SearchOptions{
		ShardOptions: ShardOptions{
			Target:  codegen.TargetX86,
			Compile: compile.Options{FnCache: fx.fnc},
			Workers: jobs,
		},
		MaxSpace: 1 << 16,
	}
}

func (fx *relinkFixture) tuneOptions(jobs, rounds int, init TuneInit) TuneOptions {
	return TuneOptions{
		ShardOptions: ShardOptions{
			Target:  codegen.TargetX86,
			Compile: compile.Options{FnCache: fx.fnc},
			Workers: jobs,
		},
		Rounds: rounds,
		Init:   init,
	}
}

func (fx *relinkFixture) session(t testing.TB) *Session {
	t.Helper()
	s, err := NewSession(fx.tus(), SessionOptions{Link: fx.linkOptions(), Results: NewComponentCache()})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// coldSearch is the cold-link oracle: a from-scratch link and sharded
// search over the fixture's current contents.
func (fx *relinkFixture) coldSearch(t testing.TB, jobs int) SearchResult {
	t.Helper()
	l, err := New(fx.tus(), fx.linkOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, ok, err := l.OptimalSearch(fx.searchOptions(jobs))
	if err != nil || !ok {
		t.Fatalf("cold search: ok=%v err=%v", ok, err)
	}
	return res
}

func assertSearchEqual(t *testing.T, tag string, got, want SearchResult) {
	t.Helper()
	if got.Size != want.Size {
		t.Errorf("%s: optimal size %d, cold %d", tag, got.Size, want.Size)
	}
	if got.NoInlineSize != want.NoInlineSize {
		t.Errorf("%s: no-inline size %d, cold %d", tag, got.NoInlineSize, want.NoInlineSize)
	}
	if got.Config.Key() != want.Config.Key() {
		t.Errorf("%s: config keys differ:\n  relink: %s\n  cold:   %s", tag, got.Config.Key(), want.Config.Key())
	}
	if got.SpaceTotal != want.SpaceTotal {
		t.Errorf("%s: space totals differ: %d vs %d", tag, got.SpaceTotal, want.SpaceTotal)
	}
	if !reflect.DeepEqual(got.Components, want.Components) {
		t.Errorf("%s: per-component stats differ:\n  relink: %+v\n  cold:   %+v", tag, got.Components, want.Components)
	}
}

// TestSessionSearchMatchesCold drives a session through every mutation
// kind and checks each warm re-search against the cold full-link oracle,
// at several worker counts.
func TestSessionSearchMatchesCold(t *testing.T) {
	fx := newRelinkFixture(t)
	sess := fx.session(t)

	res, info, ok, err := sess.Search(fx.searchOptions(2))
	if err != nil || !ok {
		t.Fatalf("initial search: ok=%v err=%v", ok, err)
	}
	if info.ComponentsReplayed != 0 {
		t.Errorf("fresh cache replayed %d components", info.ComponentsReplayed)
	}
	assertSearchEqual(t, "initial", res, fx.coldSearch(t, 1))

	for step, edit := range []struct{ tu, seed int }{
		{1, 0}, // const bump: plan reused
		{2, 1}, // local rename: plan rebuilt
		{0, 2}, // export local: plan rebuilt
		{1, 3}, // another const bump on an already-edited unit
	} {
		tu := fx.patchTU(edit.tu, edit.seed)
		rep, err := sess.ReplaceNamed(tu)
		if err != nil {
			t.Fatalf("step %d: patch: %v", step, err)
		}
		wantReuse := edit.seed%3 == 0
		if rep.PlanReused != wantReuse {
			t.Errorf("step %d: PlanReused=%v, want %v", step, rep.PlanReused, wantReuse)
		}
		cold := fx.coldSearch(t, 1)
		for _, jobs := range []int{1, 2, 8} {
			got, _, ok, err := sess.Search(fx.searchOptions(jobs))
			if err != nil || !ok {
				t.Fatalf("step %d jobs %d: ok=%v err=%v", step, jobs, ok, err)
			}
			assertSearchEqual(t, "step", got, cold)
		}
	}

	st := sess.Stats()
	if st.Patches != 4 || st.PlanReuses != 2 || st.PlanRebuilds != 2 {
		t.Errorf("stats: %+v, want 4 patches = 2 reuses + 2 rebuilds", st)
	}
}

// TestSessionDirtyComponentAccounting pins the point of the whole
// subsystem: a body edit in one unit re-solves exactly the components that
// contain that unit's functions and replays every other one.
func TestSessionDirtyComponentAccounting(t *testing.T) {
	fx := newRelinkFixture(t)
	sess := fx.session(t)
	if _, _, ok, err := sess.Search(fx.searchOptions(2)); err != nil || !ok {
		t.Fatalf("initial search: ok=%v err=%v", ok, err)
	}

	// Seed 12 is a const bump (12%3 == 0) whose rotated start lands on a
	// component member rather than a residual function; the fingerprint
	// diff below keeps the test honest about what actually changed.
	const editedTU, seed = 1, 12
	oldMod := fx.mods[editedTU]
	if _, err := sess.ReplaceNamed(fx.patchTU(editedTU, seed)); err != nil {
		t.Fatal(err)
	}
	changed := map[string]bool{}
	for i, f := range oldMod.Funcs {
		if f.Fingerprint() != fx.mods[editedTU].Funcs[i].Fingerprint() {
			changed[f.Name] = true
		}
	}
	p := sess.Plan()
	dirty := map[int]bool{}
	dirtyResid := false
	for _, pf := range p.Funcs {
		if pf.TU != editedTU || !changed[pf.Src] {
			continue
		}
		if pf.Comp >= 0 {
			dirty[pf.Comp] = true
		} else {
			dirtyResid = true
		}
	}
	if len(dirty) == 0 || len(dirty) == len(p.Components) || dirtyResid {
		t.Fatalf("degenerate edit: %d of %d components dirty, residual dirty %v", len(dirty), len(p.Components), dirtyResid)
	}
	_, info, ok, err := sess.Search(fx.searchOptions(2))
	if err != nil || !ok {
		t.Fatalf("warm search: ok=%v err=%v", ok, err)
	}
	if info.ComponentsSolved != len(dirty) {
		t.Errorf("solved %d components, want the %d dirty ones", info.ComponentsSolved, len(dirty))
	}
	if info.ComponentsReplayed != len(p.Components)-len(dirty) {
		t.Errorf("replayed %d, want %d", info.ComponentsReplayed, len(p.Components)-len(dirty))
	}
	if info.ResidualSolved != 0 {
		t.Errorf("recompiled %d residual groups for a component-only edit", info.ResidualSolved)
	}

	// Identical re-query: everything replays.
	_, info, ok, err = sess.Search(fx.searchOptions(2))
	if err != nil || !ok {
		t.Fatalf("replay search: ok=%v err=%v", ok, err)
	}
	if info.ComponentsSolved != 0 || info.ResidualSolved != 0 {
		t.Errorf("full replay still solved %d components, %d residual groups", info.ComponentsSolved, info.ResidualSolved)
	}
}

// TestSessionTuneMatchesCold checks warm lockstep tuning (including trace
// replay from cache) against cold Linker.Tune, for both inits.
func TestSessionTuneMatchesCold(t *testing.T) {
	fx := newRelinkFixture(t)
	sess := fx.session(t)
	for _, init := range []TuneInit{InitClean, InitOs} {
		if _, _, err := sess.Tune(fx.tuneOptions(2, 3, init)); err != nil {
			t.Fatalf("priming tune: %v", err)
		}
		if _, err := sess.ReplaceNamed(fx.patchTU(0, 0)); err != nil {
			t.Fatal(err)
		}
		l, err := New(fx.tus(), fx.linkOptions())
		if err != nil {
			t.Fatal(err)
		}
		cold, err := l.Tune(fx.tuneOptions(1, 3, init))
		if err != nil {
			t.Fatal(err)
		}
		for _, jobs := range []int{1, 2, 8} {
			warm, info, err := sess.Tune(fx.tuneOptions(jobs, 3, init))
			if err != nil {
				t.Fatalf("warm tune: %v", err)
			}
			if jobs == 1 && info.ComponentsReplayed == 0 {
				t.Errorf("init %v: warm tune replayed nothing", init)
			}
			if !reflect.DeepEqual(warm.Result.Rounds, cold.Result.Rounds) {
				t.Errorf("init %v jobs %d: round traces differ:\n  relink: %+v\n  cold:   %+v", init, jobs, warm.Result.Rounds, cold.Result.Rounds)
			}
			if warm.Result.Size != cold.Result.Size || warm.Result.InitSize != cold.Result.InitSize || warm.Result.FinalSize != cold.Result.FinalSize {
				t.Errorf("init %v jobs %d: sizes differ: %d/%d/%d vs %d/%d/%d", init, jobs,
					warm.Result.InitSize, warm.Result.Size, warm.Result.FinalSize,
					cold.Result.InitSize, cold.Result.Size, cold.Result.FinalSize)
			}
			if warm.Result.Config.Key() != cold.Result.Config.Key() {
				t.Errorf("init %v jobs %d: best config keys differ", init, jobs)
			}
			if warm.Result.Final.Key() != cold.Result.Final.Key() {
				t.Errorf("init %v jobs %d: final config keys differ", init, jobs)
			}
			if !reflect.DeepEqual(warm.Components, cold.Components) {
				t.Errorf("init %v jobs %d: component stats differ:\n  relink: %+v\n  cold:   %+v", init, jobs, warm.Components, cold.Components)
			}
		}
	}
}

// TestSessionCycleObjectiveTypedError is the PR's satellite fix: the
// incremental path must refuse cycle objectives with a typed error, never
// silently fall back to a merged run the way Linker.Tune does.
func TestSessionCycleObjectiveTypedError(t *testing.T) {
	fx := newRelinkFixture(t)
	sess := fx.session(t)
	for _, obj := range []TuneObjective{ObjectiveWeighted, ObjectiveCycles} {
		opts := fx.tuneOptions(1, 1, InitClean)
		opts.Objective = obj
		_, _, err := sess.Tune(opts)
		var cerr *CycleObjectiveError
		if !errors.As(err, &cerr) {
			t.Fatalf("objective %v: got %v, want *CycleObjectiveError", obj, err)
		}
		if cerr.Objective != obj {
			t.Errorf("error carries objective %v, want %v", cerr.Objective, obj)
		}
	}
	if st := sess.Stats(); st.Tunes != 0 {
		t.Errorf("rejected tunes were counted: %+v", st)
	}
}

// TestSessionCheckedQueryLinksCold: a checked query is answered by a fresh
// link of the session's current units on the reference path — identical
// results, nothing replayed, and nothing recorded in the result cache.
func TestSessionCheckedQueryLinksCold(t *testing.T) {
	fx := newRelinkFixture(t)
	sess := fx.session(t)
	if _, err := sess.ReplaceNamed(fx.patchTU(1, 0)); err != nil {
		t.Fatal(err)
	}
	warm, _, ok, err := sess.Search(fx.searchOptions(2))
	if err != nil || !ok {
		t.Fatalf("warm search: ok=%v err=%v", ok, err)
	}
	warmTune, _, err := sess.Tune(fx.tuneOptions(2, 3, InitOs))
	if err != nil {
		t.Fatal(err)
	}
	entries := sess.results.Stats().Entries

	so := fx.searchOptions(2)
	so.Compile.Check = true
	checked, info, ok, err := sess.Search(so)
	if err != nil || !ok {
		t.Fatalf("checked search: ok=%v err=%v", ok, err)
	}
	assertSearchEqual(t, "checked search", warm, checked)
	if info != (RelinkInfo{}) {
		t.Errorf("checked search reported replay accounting: %+v", info)
	}

	to := fx.tuneOptions(2, 3, InitOs)
	to.Compile.Check = true
	checkedTune, info, err := sess.Tune(to)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warmTune.Result.Rounds, checkedTune.Result.Rounds) ||
		warmTune.Result.Config.Key() != checkedTune.Result.Config.Key() ||
		!reflect.DeepEqual(warmTune.Components, checkedTune.Components) {
		t.Errorf("checked tune differs from warm:\n  warm:    %+v\n  checked: %+v", warmTune.Result, checkedTune.Result)
	}
	if info != (RelinkInfo{}) {
		t.Errorf("checked tune reported replay accounting: %+v", info)
	}
	if got := sess.results.Stats().Entries; got != entries {
		t.Errorf("checked queries recorded %d result-cache entries", got-entries)
	}
}

// TestSessionReplaceErrors: bad indices and renames fail without touching
// session state.
func TestSessionReplaceErrors(t *testing.T) {
	fx := newRelinkFixture(t)
	sess := fx.session(t)
	before := fx.coldSearch(t, 1)

	if _, err := sess.Replace(99, fx.tus()[0]); err == nil {
		t.Error("out-of-range Replace succeeded")
	}
	renamed := fx.tus()[0]
	renamed.Name = "somewhere-else"
	if _, err := sess.Replace(0, renamed); err == nil {
		t.Error("renaming Replace succeeded")
	}
	if _, err := sess.ReplaceNamed(renamed); err == nil {
		t.Error("ReplaceNamed of unknown unit succeeded")
	}
	if st := sess.Stats(); st.Patches != 0 {
		t.Errorf("failed patches were counted: %+v", st)
	}
	got, _, ok, err := sess.Search(fx.searchOptions(1))
	if err != nil || !ok {
		t.Fatalf("search after failed patches: ok=%v err=%v", ok, err)
	}
	assertSearchEqual(t, "after-failed-patches", got, before)
}

// TestSessionSharedCacheAcrossSessions: a second session over identical
// contents replays everything from a shared ComponentCache.
func TestSessionSharedCacheAcrossSessions(t *testing.T) {
	fx := newRelinkFixture(t)
	shared := NewComponentCache()
	mk := func() *Session {
		s, err := NewSession(fx.tus(), SessionOptions{Link: fx.linkOptions(), Results: shared})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := mk()
	if _, info, ok, err := a.Search(fx.searchOptions(2)); err != nil || !ok || info.ComponentsSolved == 0 {
		t.Fatalf("first session: ok=%v err=%v info=%+v", ok, err, info)
	}
	b := mk()
	resB, info, ok, err := b.Search(fx.searchOptions(2))
	if err != nil || !ok {
		t.Fatalf("second session: ok=%v err=%v", ok, err)
	}
	if info.ComponentsSolved != 0 || info.ResidualSolved != 0 {
		t.Errorf("second session solved %d components, %d residual groups; want all replayed", info.ComponentsSolved, info.ResidualSolved)
	}
	assertSearchEqual(t, "cross-session", resB, fx.coldSearch(t, 1))
	if st := shared.Stats(); st.Hits == 0 || st.Entries == 0 {
		t.Errorf("shared cache saw no reuse: %+v", st)
	}
}

// TestComponentCacheWithdraw: a failed computation is withdrawn and the
// key stays usable.
func TestComponentCacheWithdraw(t *testing.T) {
	cc := NewComponentCache()
	key := ResultKey{Hi: 1, Lo: 2}
	if _, _, err := cc.get(key, func() (any, error) { return nil, errors.New("boom") }); err == nil {
		t.Fatal("error not propagated")
	}
	v, hit, err := cc.get(key, func() (any, error) { return 42, nil })
	if err != nil || hit || v.(int) != 42 {
		t.Fatalf("retry after withdraw: v=%v hit=%v err=%v", v, hit, err)
	}
	v, hit, err = cc.get(key, func() (any, error) { t.Error("recomputed a fulfilled key"); return nil, nil })
	if err != nil || !hit || v.(int) != 42 {
		t.Fatalf("hit after fulfill: v=%v hit=%v err=%v", v, hit, err)
	}
}
