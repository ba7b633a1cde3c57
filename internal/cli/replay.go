package cli

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"optinline/internal/link"
)

// Init is one starting configuration of an autotuning run.
type Init struct {
	Kind  link.TuneInit
	Name  string // the -init spelling: "clean" or "os"
	Label string // the report heading
}

var (
	initClean = Init{link.InitClean, "clean", "clean slate"}
	initOs    = Init{link.InitOs, "os", "-Os initialized"}
)

func parseInits(name string) ([]Init, error) {
	switch name {
	case "clean":
		return []Init{initClean}, nil
	case "os":
		return []Init{initOs}, nil
	case "both":
		return []Init{initClean, initOs}, nil
	}
	return nil, fmt.Errorf("unknown init mode %q (want clean, os or both)", name)
}

// BestOf tunes from each init in order and returns the result of least
// cost; ties go to the earlier init, the clean slate.
func BestOf[R any](inits []Init, tune func(Init) (R, error), cost func(R) float64) (R, error) {
	var best R
	for i, in := range inits {
		r, err := tune(in)
		if err != nil {
			return best, err
		}
		if i == 0 || cost(r) < cost(best) {
			best = r
		}
	}
	return best, nil
}

// SearchOptions returns the linked search options the flags select.
func (f *Flags) SearchOptions() link.SearchOptions {
	return link.SearchOptions{ShardOptions: f.ShardOptions(), MaxSpace: f.MaxSpace}
}

// TuneOptions returns the size-objective linked tuning options the flags
// select, starting from init.
func (f *Flags) TuneOptions(init Init) link.TuneOptions {
	return link.TuneOptions{ShardOptions: f.ShardOptions(), Rounds: f.Rounds, Init: init.Kind}
}

// Replay runs the -relink edit script over the argument units on one
// incremental link.Session. A patch step swaps one unit's contents (patch
// paths resolve relative to the script); search and tune steps, in any
// order, print the linked search report of inlinesearch -link and the
// linked tuning report of inlinetune -link. Content-unchanged components
// replay their cached optimum or tuning trace; under -check the session
// answers every query from a cold link instead, and the stdout written to
// w is byte-identical. Replay accounting goes to stderr.
func (f *Flags) Replay(w io.Writer) error {
	data, err := os.ReadFile(f.Relink)
	if err != nil {
		return fmt.Errorf("-relink: %w", err)
	}
	ops, err := ParseEditScript(data)
	if err != nil {
		return fmt.Errorf("-relink %s: %w", f.Relink, err)
	}
	dir := filepath.Dir(f.Relink)
	sess, err := link.NewSession(f.Units(), link.SessionOptions{Link: link.Options{DupExported: f.Dup}})
	if err != nil {
		return err
	}
	for i, op := range ops {
		step := fmt.Sprintf("step %d", i+1)
		switch op.Verb {
		case "patch":
			fmt.Fprintf(w, "== %s: patch %s <- %s ==\n", step, op.TU, op.Path)
			path := op.Path
			if !filepath.IsAbs(path) {
				path = filepath.Join(dir, path)
			}
			err = patchStep(sess, step, unit(op.TU, path))
		case "search":
			fmt.Fprintf(w, "== %s: search ==\n", step)
			err = f.searchStep(w, sess, step)
		case "tune":
			fmt.Fprintf(w, "== %s: tune ==\n", step)
			err = f.tuneStep(w, sess, step)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", step, err)
		}
	}
	return nil
}

func patchStep(sess *link.Session, step string, tu link.TU) error {
	rep, err := sess.ReplaceNamed(tu)
	if err != nil {
		return err
	}
	if rep.PlanReused {
		Stat(step, "body-only edit, plan reused")
	} else {
		Stat(step, "link surface changed, plan rebuilt")
	}
	return nil
}

func (f *Flags) searchStep(w io.Writer, sess *link.Session, step string) error {
	pl := sess.Plan()
	res, info, ok, err := sess.Search(f.SearchOptions())
	if err != nil {
		return err
	}
	if !ok {
		return Capped(res, f.MaxSpace)
	}
	SearchPlan(w, pl)
	SearchReport(w, pl, res)
	Stat(step, replayed(info))
	return nil
}

func (f *Flags) tuneStep(w io.Writer, sess *link.Session, step string) error {
	pl := sess.Plan()
	TunePlan(w, pl)
	best, err := BestOf(f.Inits, func(in Init) (link.TuneResult, error) {
		tr, info, err := sess.Tune(f.TuneOptions(in))
		if err != nil {
			return tr, err
		}
		TuneReport(w, pl, in.Label, tr)
		Stat(fmt.Sprintf("%s (%s)", step, in.Name), replayed(info))
		return tr, nil
	}, func(tr link.TuneResult) float64 { return float64(tr.Result.Size) })
	if err != nil {
		return err
	}
	TuneFinal(w, pl, best)
	return nil
}

func replayed(info link.RelinkInfo) string {
	return fmt.Sprintf("components solved %d, replayed %d; residual solved %d, replayed %d",
		info.ComponentsSolved, info.ComponentsReplayed, info.ResidualSolved, info.ResidualReplayed)
}

// The reports below are mode-independent: the -check gates byte-diff them,
// so nothing schedule- or cache-dependent may appear in them.

// SearchPlan prints the plan line of a linked search.
func SearchPlan(w io.Writer, pl *link.Plan) {
	fmt.Fprintf(w, "linked %d TUs: %d functions, %d inlinable call sites (%d cross-TU, %d locals renamed, %d calls stay external)\n",
		len(pl.TUs), len(pl.Funcs), len(pl.Edges), pl.CrossTU, pl.Renamed, pl.ExternalCalls)
}

// SearchReport prints the per-component and merged optimum of a linked
// search.
func SearchReport(w io.Writer, pl *link.Plan, res link.SearchResult) {
	fmt.Fprintf(w, "components: %d, recursive space %d evaluations total\n", len(res.Components), res.SpaceTotal)
	for _, cs := range res.Components {
		fmt.Fprintf(w, "  component %2d: %3d funcs, %3d sites, space %8d, inlined %3d, delta %+d bytes\n",
			cs.Index, cs.Funcs, cs.Edges, cs.Space, cs.Inlined, cs.SizeDelta)
	}
	fmt.Fprintf(w, "\nno inlining:    %6d bytes\n", res.NoInlineSize)
	fmt.Fprintf(w, "optimal:        %6d bytes, inlining %d of %d sites\n",
		res.Size, res.Config.InlineCount(), len(pl.Edges))
	fmt.Fprintf(w, "optimal inline sites: %v\n", res.Config.InlineSites())
}

// Capped reports on stderr the components whose recursive space exceeded
// maxSpace and returns the error that aborts the search.
func Capped(res link.SearchResult, maxSpace uint64) error {
	for _, cs := range res.Components {
		if cs.Capped {
			Stat(fmt.Sprintf("component %d", cs.Index),
				fmt.Sprintf("%d sites, recursive space %d+ evaluations", cs.Edges, cs.Space))
		}
	}
	return fmt.Errorf("a component's recursive space exceeds %d evaluations; raise -max-space", maxSpace)
}

// TunePlan prints the plan line of a linked tuning run.
func TunePlan(w io.Writer, pl *link.Plan) {
	fmt.Fprintf(w, "linked %d TUs: %d functions, %d inlinable call sites (%d cross-TU, %d locals renamed), %d components\n",
		len(pl.TUs), len(pl.Funcs), len(pl.Edges), pl.CrossTU, pl.Renamed, len(pl.Components))
}

// TuneReport prints one size-objective linked tuning run from one init.
func TuneReport(w io.Writer, pl *link.Plan, label string, tr link.TuneResult) {
	res := tr.Result
	fmt.Fprintf(w, "\n%s (init %d bytes):\n", label, res.InitSize)
	for _, r := range res.Rounds {
		fmt.Fprintf(w, "  round %d: %d bytes, %d inlined / %d not, %d toggles\n",
			r.Round, r.Size, r.Inlined, r.NotInlined, r.Toggles)
	}
	fmt.Fprintf(w, "  best: %d bytes, inlining %d of %d sites\n",
		res.Size, res.Config.InlineCount(), len(pl.Edges))
	TuneComponents(w, tr)
}

// TuneComponents prints the per-component lines of a linked tuning run.
func TuneComponents(w io.Writer, tr link.TuneResult) {
	for _, cs := range tr.Components {
		fmt.Fprintf(w, "    component %2d: %3d funcs, %3d sites, inlined %3d\n",
			cs.Index, cs.Funcs, cs.Edges, cs.Inlined)
	}
}

// TuneFinal prints the closing line of a size-objective linked tuning run.
func TuneFinal(w io.Writer, pl *link.Plan, best link.TuneResult) {
	fmt.Fprintf(w, "\nfinal: %d bytes, inlining %d of %d sites\n",
		best.Result.Size, best.Result.Config.InlineCount(), len(pl.Edges))
}
