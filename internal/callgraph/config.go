package callgraph

import (
	"encoding/binary"
	"math/bits"
	"strconv"
	"strings"
	"sync/atomic"
)

// Config is an inlining configuration: a label assignment over call sites.
// Sites never Set are no-inline — the paper's "clean slate" is the empty
// configuration. Configurations are value-like: use Clone before mutating a
// shared one.
//
// The representation is a dense bitset over site IDs (AssignSites hands
// them out contiguously from 1), so Clone, Equal, and Merge are O(words)
// instead of O(sites·log sites), and the canonical Key is computed at most
// once per distinct label set. Mutation (Set, Merge) is not safe for
// concurrent use; everything else — including the lazily cached Key — is,
// so a configuration shared by search workers stays race-free.
type Config struct {
	words []uint64 // bit s set = site s labeled inline; no trailing zero words
	count int      // population count, kept incrementally

	// key caches the canonical Key; atomic because read-only sharing across
	// goroutines is allowed (mutators reset it).
	key atomic.Pointer[string]
}

// NewConfig returns the empty (clean-slate) configuration.
func NewConfig() *Config {
	return &Config{}
}

// NewConfigOf returns a configuration labeling exactly the given sites
// inline.
func NewConfigOf(sites []int) *Config {
	c := &Config{}
	for _, s := range sites {
		c.Set(s, true)
	}
	return c
}

// Clone returns an independent copy, carrying over any cached Key.
func (c *Config) Clone() *Config {
	nc := &Config{count: c.count}
	if len(c.words) > 0 {
		nc.words = make([]uint64, len(c.words))
		copy(nc.words, c.words)
	}
	nc.key.Store(c.key.Load())
	return nc
}

// CopyFrom sets c to other's labels, reusing c's memory, and returns c.
func (c *Config) CopyFrom(other *Config) *Config {
	if c == other {
		return c
	}
	c.words = append(c.words[:0], other.words...)
	c.count = other.count
	c.key.Store(other.key.Load())
	return c
}

// invalidate drops the cached canonical Key after a mutation.
func (c *Config) invalidate() {
	c.key.Store(nil)
}

// Set assigns a label to a site.
func (c *Config) Set(site int, inline bool) *Config {
	if site < 0 {
		panic("callgraph: negative site ID")
	}
	w, b := site/64, uint(site%64)
	if inline {
		if w >= len(c.words) {
			c.words = append(c.words, make([]uint64, w+1-len(c.words))...)
		}
		if c.words[w]&(1<<b) == 0 {
			c.words[w] |= 1 << b
			c.count++
			c.invalidate()
		}
		return c
	}
	if w < len(c.words) && c.words[w]&(1<<b) != 0 {
		c.words[w] &^= 1 << b
		c.count--
		for len(c.words) > 0 && c.words[len(c.words)-1] == 0 {
			c.words = c.words[:len(c.words)-1]
		}
		c.invalidate()
	}
	return c
}

// Inline reports whether the site is labeled inline.
func (c *Config) Inline(site int) bool {
	w := site / 64
	return site >= 0 && w < len(c.words) && c.words[w]&(1<<uint(site%64)) != 0
}

// InlineSites returns the inline-labeled sites in ascending order.
func (c *Config) InlineSites() []int {
	return c.AppendInlineSites(make([]int, 0, c.count))
}

// AppendInlineSites appends the inline-labeled sites to dst in ascending
// order and returns the extended slice.
func (c *Config) AppendInlineSites(dst []int) []int {
	for w, word := range c.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			dst = append(dst, w*64+b)
			word &= word - 1
		}
	}
	return dst
}

// InlineCount returns the number of inline-labeled sites.
func (c *Config) InlineCount() int { return c.count }

// Merge copies all inline labels of other into c (used to combine the
// independent-component partial configurations of Algorithm 1).
func (c *Config) Merge(other *Config) *Config {
	if len(other.words) == 0 {
		return c
	}
	if len(other.words) > len(c.words) {
		c.words = append(c.words, make([]uint64, len(other.words)-len(c.words))...)
	}
	changed := false
	for i, w := range other.words {
		if merged := c.words[i] | w; merged != c.words[i] {
			c.words[i] = merged
			changed = true
		}
	}
	if changed {
		n := 0
		for _, w := range c.words {
			n += bits.OnesCount64(w)
		}
		c.count = n
		c.invalidate()
	}
	return c
}

// DiffSites returns the sites labeled differently by c and other, in
// ascending order — the toggle set that turns one configuration into the
// other (compile.Derive's currency).
func (c *Config) DiffSites(other *Config) []int { return c.AppendDiffSites(nil, other) }

// AppendDiffSites appends DiffSites' sites to dst and returns the extended
// slice.
func (c *Config) AppendDiffSites(dst []int, other *Config) []int {
	n := max(len(c.words), len(other.words))
	for w := 0; w < n; w++ {
		var a, b uint64
		if w < len(c.words) {
			a = c.words[w]
		}
		if w < len(other.words) {
			b = other.words[w]
		}
		for x := a ^ b; x != 0; x &= x - 1 {
			dst = append(dst, w*64+bits.TrailingZeros64(x))
		}
	}
	return dst
}

// Key returns a canonical string identity: two configurations with the same
// inline-labeled site set share it. It is computed once per distinct label
// set and cached (mutators invalidate), so hot paths that key maps by it —
// the objective tuner's memo — stop re-sorting per call.
func (c *Config) Key() string {
	if k := c.key.Load(); k != nil {
		return *k
	}
	var sb strings.Builder
	first := true
	for w, word := range c.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			if !first {
				sb.WriteByte(',')
			}
			first = false
			sb.WriteString(strconv.Itoa(w*64 + b))
		}
	}
	k := sb.String()
	c.key.Store(&k)
	return k
}

// CacheKey returns a compact binary identity: the bitset words in fixed
// little-endian order. Distinct label sets map to distinct strings (the
// no-trailing-zero-words invariant makes the encoding canonical), and at 8
// bytes per 64 sites it is both cheaper to build and much smaller to retain
// than the decimal Key — the whole-configuration compile cache keys by it,
// and those keys dominate that cache's live heap on big runs.
func (c *Config) CacheKey() string { return string(c.AppendCacheKey(nil)) }

// AppendCacheKey appends CacheKey's bytes to dst, so a cache lookup can
// build its key in a stack buffer and index a map without allocating.
func (c *Config) AppendCacheKey(dst []byte) []byte {
	for _, w := range c.words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// Equal reports whether two configurations label the same sites inline.
// The no-trailing-zero-words invariant makes this a plain word compare.
func (c *Config) Equal(other *Config) bool {
	if c.count != other.count || len(c.words) != len(other.words) {
		return false
	}
	for i, w := range c.words {
		if w != other.words[i] {
			return false
		}
	}
	return true
}

func (c *Config) String() string {
	if c.count == 0 {
		return "{clean slate}"
	}
	return "{inline: " + c.Key() + "}"
}

// Agreement tallies how two configurations relate over a site universe:
// the 2x2 matrix of the paper's Table 2. The first index is a's label, the
// second is b's (false = no-inline, true = inline).
func Agreement(sites []int, a, b *Config) (matrix [2][2]int) {
	for _, s := range sites {
		ai, bi := 0, 0
		if a.Inline(s) {
			ai = 1
		}
		if b.Inline(s) {
			bi = 1
		}
		matrix[ai][bi]++
	}
	return matrix
}
