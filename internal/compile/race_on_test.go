//go:build race

package compile

// See race_off_test.go.
const raceEnabled = true
