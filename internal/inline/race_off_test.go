//go:build !race

package inline

// raceEnabled reports whether the race detector is compiled in: it makes
// sync.Pool drop items at random, so pooled paths allocate.
const raceEnabled = false
