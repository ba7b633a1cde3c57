//go:build race

package autotune

// See race_off_test.go.
const raceEnabled = true
