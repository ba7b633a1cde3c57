package link

import (
	"fmt"
	"strings"
	"testing"
)

// formatSearchReport renders a search result the way inlinesearch's linked
// mode prints it on stdout — every mode-independent field in one string —
// so a single compare proves the byte-identity the CLIs' -relink versus
// -relink -check differential promises.
func formatSearchReport(p *Plan, res SearchResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "linked %d TUs: %d functions, %d inlinable call sites (%d cross-TU, %d locals renamed, %d calls stay external)\n",
		len(p.TUs), len(p.Funcs), len(p.Edges), p.CrossTU, p.Renamed, p.ExternalCalls)
	fmt.Fprintf(&b, "components: %d, recursive space %d evaluations total\n", len(res.Components), res.SpaceTotal)
	for _, cs := range res.Components {
		fmt.Fprintf(&b, "  component %2d: %3d funcs, %3d sites, space %8d, inlined %3d, delta %+d bytes\n",
			cs.Index, cs.Funcs, cs.Edges, cs.Space, cs.Inlined, cs.SizeDelta)
	}
	fmt.Fprintf(&b, "\nno inlining:    %6d bytes\n", res.NoInlineSize)
	fmt.Fprintf(&b, "optimal:        %6d bytes, inlining %d of %d sites\n", res.Size, res.Config.InlineCount(), len(p.Edges))
	fmt.Fprintf(&b, "optimal inline sites: %v\n", res.Config.InlineSites())
	return b.String()
}

// formatTuneReport does the same for a tuning result.
func formatTuneReport(p *Plan, res TuneResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "init %d bytes\n", res.Result.InitSize)
	for _, r := range res.Result.Rounds {
		fmt.Fprintf(&b, "  round %d: %d bytes, %d inlined / %d not, %d toggles\n", r.Round, r.Size, r.Inlined, r.NotInlined, r.Toggles)
	}
	fmt.Fprintf(&b, "  best: %d bytes, inlining %d of %d sites\n", res.Result.Size, res.Result.Config.InlineCount(), len(p.Edges))
	for _, cs := range res.Components {
		fmt.Fprintf(&b, "    component %2d: %3d funcs, %3d sites, inlined %3d\n", cs.Index, cs.Funcs, cs.Edges, cs.Inlined)
	}
	fmt.Fprintf(&b, "final: %d bytes, inlining %d of %d sites (sites %v)\n",
		res.Result.FinalSize, res.Result.Final.InlineCount(), len(p.Edges), res.Result.Final.InlineSites())
	return b.String()
}

// relinkDifferential replays a fuzz-chosen TU-edit script through a warm
// Session and, after every edit, cross-checks the incremental search (at
// jobs 1/2/8) — and periodically the incremental tune — against a cold
// from-scratch link of the same contents: identical sizes, config keys,
// per-component stats, and rendered stdout. This is the executable form of
// the cache-key soundness argument in key.go.
func relinkDifferential(t *testing.T, data []byte) {
	if len(data) < 2 {
		t.Skip("need at least one (tu, seed) pair")
	}
	if len(data) > 8 {
		data = data[:8] // bound work per execution
	}
	fx := newRelinkFixture(t)
	sess := fx.session(t)
	for step := 0; step+1 < len(data); step += 2 {
		tu := int(data[step]) % len(fx.mods)
		seed := int(data[step+1])
		prev := fx.mods[tu]
		patched := fx.patchTU(tu, seed)
		if _, err := sess.ReplaceNamed(patched); err != nil {
			// The cold oracle must reject the same contents for the same
			// reason; the session must have rolled back.
			if _, coldErr := New(fx.tus(), fx.linkOptions()); coldErr == nil {
				t.Fatalf("step %d: session rejected patch (%v) but cold link accepts", step, err)
			}
			fx.mods[tu] = prev
			continue
		}

		coldLinker, err := New(fx.tus(), fx.linkOptions())
		if err != nil {
			t.Fatalf("step %d: cold link: %v", step, err)
		}
		cold, coldOK, err := coldLinker.OptimalSearch(fx.searchOptions(1))
		if err != nil {
			t.Fatalf("step %d: cold search: %v", step, err)
		}
		coldReport := ""
		if coldOK {
			coldReport = formatSearchReport(coldLinker.Plan(), cold)
		}
		for _, jobs := range []int{1, 2, 8} {
			warm, _, warmOK, err := sess.Search(fx.searchOptions(jobs))
			if err != nil {
				t.Fatalf("step %d jobs %d: relink search: %v", step, jobs, err)
			}
			if warmOK != coldOK {
				t.Fatalf("step %d jobs %d: capped disagreement: relink ok=%v, cold ok=%v", step, jobs, warmOK, coldOK)
			}
			if !coldOK {
				continue
			}
			if got := formatSearchReport(sess.Plan(), warm); got != coldReport {
				t.Fatalf("step %d jobs %d: relink / cold stdout differs:\n--- relink ---\n%s--- cold ---\n%s", step, jobs, got, coldReport)
			}
		}
		if seed%5 == 0 {
			coldTune, err := coldLinker.Tune(fx.tuneOptions(1, 2, InitClean))
			if err != nil {
				t.Fatalf("step %d: cold tune: %v", step, err)
			}
			warmTune, _, err := sess.Tune(fx.tuneOptions(2, 2, InitClean))
			if err != nil {
				t.Fatalf("step %d: relink tune: %v", step, err)
			}
			if got, want := formatTuneReport(sess.Plan(), warmTune), formatTuneReport(coldLinker.Plan(), coldTune); got != want {
				t.Fatalf("step %d: relink / cold tune stdout differs:\n--- relink ---\n%s--- cold ---\n%s", step, got, want)
			}
		}
	}
}

// FuzzRelinkDifferential is the seed-corpus form of the satellite
// requirement: random TU-edit scripts, relink == cold link, every worker
// count. The seeds cover every mutation kind (const bump, local rename,
// export flip), repeat edits of one unit, round-trips that restore earlier
// content (exercising cache replay of formerly-dirty components), and a
// tune step (seed byte 0, 5, ...).
func FuzzRelinkDifferential(f *testing.F) {
	f.Add([]byte{1, 0, 2, 1, 0, 2})       // one edit of each kind
	f.Add([]byte{1, 12, 1, 12})           // same edit twice: second is a no-op patch
	f.Add([]byte{0, 5, 3, 7, 0, 9, 3, 4}) // interleaved edits, tune step at seed 5
	f.Add([]byte{2, 3, 2, 6, 2, 0})       // pile-up on one unit ending in a tune
	f.Add([]byte{255, 254})               // out-of-range unit byte wraps
	f.Fuzz(relinkDifferential)
}
