package link

import (
	"reflect"
	"testing"

	"optinline/internal/workload"
)

// TestSummaryCacheStaysBounded: summarizing more distinct unit versions
// than the cache keeps must leave it within its bounds, with counters that
// only grow by one per request; a version evicted on the way summarizes
// again to a summary equal to its first.
func TestSummaryCacheStaysBounded(t *testing.T) {
	cache := NewSummaryCache()
	unit := workload.GenerateLinked(workload.LinkedProfiles()[0]).Files[0].Module
	first := cache.summarize(unit)
	versions := 0
	for seed := 1; versions <= maxSummaries; seed++ {
		hits, misses := cache.Hits(), cache.Misses()
		unit = workload.MutateLinkedTU(unit, seed)
		cache.summarize(unit)
		if cache.Hits() < hits || cache.Misses() < misses || cache.Hits()+cache.Misses() != hits+misses+1 {
			t.Fatalf("version %d: counters went from %d/%d to %d/%d",
				seed, hits, misses, cache.Hits(), cache.Misses())
		}
		versions += int(cache.Misses() - misses)
		if cache.mods.len() > maxSummaries || cache.fns.len() > maxShapes {
			t.Fatalf("after %d versions the cache holds %d summaries and %d shapes, bounds %d and %d",
				versions, cache.mods.len(), cache.fns.len(), maxSummaries, maxShapes)
		}
	}
	misses := cache.Misses()
	again := cache.summarize(workload.GenerateLinked(workload.LinkedProfiles()[0]).Files[0].Module)
	if cache.Misses() != misses+1 {
		t.Fatalf("the first version was still cached after %d later versions", versions)
	}
	if again == first || !reflect.DeepEqual(again, first) {
		t.Fatalf("the evicted first version summarized to\n%+v\nfirst\n%+v", again, first)
	}
}

// TestGenerationsKeepRecentEntries: the bounded map never exceeds its
// limit, keeps an entry read between every two insertions and the most
// recent insertions, and drops an entry that went generations unused.
func TestGenerationsKeepRecentEntries(t *testing.T) {
	const limit = 8
	g := newGenerations[int, int](limit)
	for k := 0; k < 100; k++ {
		g.put(k, -k)
		if g.len() > limit {
			t.Fatalf("after key %d: %d entries, limit %d", k, g.len(), limit)
		}
		if v, ok := g.get(0); !ok || v != 0 {
			t.Fatalf("after key %d: key 0, read after every insertion, was dropped", k)
		}
	}
	for _, k := range []int{98, 99} {
		if v, ok := g.get(k); !ok || v != -k {
			t.Fatalf("key %d, among the last insertions, was dropped", k)
		}
	}
	if _, ok := g.get(50); ok {
		t.Fatal("key 50 survived 49 later insertions")
	}
}
