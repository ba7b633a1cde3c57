//go:build !race

package compile

// raceEnabled reports whether the race detector is compiled in: it makes
// sync.Pool drop items at random, so pooled paths allocate.
const raceEnabled = false
