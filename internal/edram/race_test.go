//go:build race

package edram

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
