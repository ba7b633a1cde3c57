//go:build !race

package search

// raceEnabled reports whether the race detector is compiled in; the
// reference differential then runs its -short subset.
const raceEnabled = false
