//go:build race

package dse

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
