//go:build !race

package edram

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
