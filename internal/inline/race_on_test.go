//go:build race

package inline

// See race_off_test.go.
const raceEnabled = true
