//go:build !race

package device

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
