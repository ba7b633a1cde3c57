//go:build !race

package autotune

// raceEnabled reports whether the race detector is compiled in; the
// reference differential then runs its -short subset.
const raceEnabled = false
