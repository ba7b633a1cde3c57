package callgraph

import (
	"math/rand"
	"sync"
	"testing"
)

// randomCfg flips n coin-tossed sites in [0, universe).
func randomCfg(rng *rand.Rand, universe int) *Config {
	c := NewConfig()
	for s := 0; s < universe; s++ {
		if rng.Intn(2) == 0 {
			c.Set(s, true)
		}
	}
	return c
}

// TestConfigBitsetRoundTrip: Set/Inline/InlineSites/InlineCount must agree
// with a reference map for arbitrary mutation sequences, including sites far
// beyond one word and toggles back to no-inline.
func TestConfigBitsetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := NewConfig()
	ref := map[int]bool{}
	for step := 0; step < 4000; step++ {
		s := rng.Intn(257) // spans five words
		on := rng.Intn(2) == 0
		c.Set(s, on)
		if on {
			ref[s] = true
		} else {
			delete(ref, s)
		}
	}
	if c.InlineCount() != len(ref) {
		t.Fatalf("count %d, want %d", c.InlineCount(), len(ref))
	}
	for s := 0; s < 257; s++ {
		if c.Inline(s) != ref[s] {
			t.Fatalf("site %d: Inline %v, want %v", s, c.Inline(s), ref[s])
		}
	}
	prev := -1
	for _, s := range c.InlineSites() {
		if !ref[s] || s <= prev {
			t.Fatalf("InlineSites not the ascending label set: %v", c.InlineSites())
		}
		prev = s
	}
}

// TestConfigTrailingWordsTrimmed: clearing the highest sites must shrink the
// word slice so Equal/CacheKey/Key see the same representation as a config that
// never visited them.
func TestConfigTrailingWordsTrimmed(t *testing.T) {
	a := NewConfig().Set(3, true).Set(200, true).Set(200, false)
	b := NewConfig().Set(3, true)
	if !a.Equal(b) {
		t.Fatalf("trimmed config %v != fresh %v", a, b)
	}
	if a.CacheKey() != b.CacheKey() {
		t.Fatalf("trimmed cache key %x != fresh %x", a.CacheKey(), b.CacheKey())
	}
	if a.Key() != b.Key() {
		t.Fatalf("trimmed key %q != fresh %q", a.Key(), b.Key())
	}
}

// TestConfigKeyCacheInvalidation: the cached Key must survive reads and
// clones but never a mutation.
func TestConfigKeyCacheInvalidation(t *testing.T) {
	c := NewConfig().Set(1, true).Set(5, true)
	if k := c.Key(); k != "1,5" {
		t.Fatalf("key %q, want \"1,5\"", k)
	}
	cl := c.Clone()
	if cl.Key() != "1,5" {
		t.Fatal("clone lost the cached key")
	}
	cl.Set(9, true)
	if cl.Key() != "1,5,9" {
		t.Fatalf("post-mutation key %q, want \"1,5,9\"", cl.Key())
	}
	if c.Key() != "1,5" {
		t.Fatalf("mutating a clone changed the original's key to %q", c.Key())
	}
	c.Merge(NewConfig().Set(70, true))
	if c.Key() != "1,5,70" {
		t.Fatalf("post-merge key %q, want \"1,5,70\"", c.Key())
	}
	// A no-op mutation must not discard correctness either way.
	before := c.Key()
	c.Set(1, true)
	if c.Key() != before {
		t.Fatalf("no-op Set changed key to %q", c.Key())
	}
}

// TestConfigCacheKeyEqualConsistency: the compile caches' CacheKey is an
// identity — Equal configurations share it, and distinct label sets never
// do — and AppendCacheKey appends exactly its bytes.
func TestConfigCacheKeyEqualConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	seen := map[string]*Config{}
	for trial := 0; trial < 300; trial++ {
		c := randomCfg(rng, 130)
		d := NewConfig()
		for _, s := range c.InlineSites() {
			d.Set(s, true)
		}
		if !c.Equal(d) || c.CacheKey() != d.CacheKey() || c.Key() != d.Key() {
			t.Fatalf("reconstructed config disagrees: %v vs %v", c, d)
		}
		if prev, ok := seen[c.CacheKey()]; ok && !prev.Equal(c) {
			t.Fatalf("cache key collision: %v vs %v", prev, c)
		}
		seen[c.CacheKey()] = c
		if got := string(c.AppendCacheKey([]byte("p"))); got != "p"+c.CacheKey() {
			t.Fatalf("AppendCacheKey = %x, want p + %x", got, c.CacheKey())
		}
	}
}

// TestConfigDiffSites: DiffSites must be the symmetric difference, in
// ascending order, regardless of which side is wider.
func TestConfigDiffSites(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		a := randomCfg(rng, 100)
		b := randomCfg(rng, 200) // wider universe: exercises length mismatch
		want := map[int]bool{}
		for s := 0; s < 200; s++ {
			if a.Inline(s) != b.Inline(s) {
				want[s] = true
			}
		}
		got := a.DiffSites(b)
		if len(got) != len(want) {
			t.Fatalf("diff %v: %d sites, want %d", got, len(got), len(want))
		}
		prev := -1
		for _, s := range got {
			if !want[s] || s <= prev {
				t.Fatalf("diff %v is not the ascending symmetric difference", got)
			}
			prev = s
		}
		// Applying the diff as toggles must transport a onto b.
		c := a.Clone()
		for _, s := range got {
			c.Set(s, !a.Inline(s))
		}
		if !c.Equal(b) {
			t.Fatalf("a ⊕ diff != b: %v vs %v", c, b)
		}
	}
}

// TestConfigConcurrentReads: the lazily cached Key must be safe under
// concurrent readers of a shared configuration (the search workers' pattern;
// run with -race).
func TestConfigConcurrentReads(t *testing.T) {
	c := NewConfig().Set(2, true).Set(67, true).Set(131, true)
	var wg sync.WaitGroup
	keys := make([]string, 16)
	for i := range keys {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			keys[i] = c.Key()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[0] {
			t.Fatalf("concurrent readers saw different keys: %q vs %q", keys[i], keys[0])
		}
	}
	if keys[0] != "2,67,131" {
		t.Fatalf("key %q, want \"2,67,131\"", keys[0])
	}
}
