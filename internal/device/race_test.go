//go:build race

package device

// raceEnabled reports a -race build, whose detector slows the seeded
// differential tests about tenfold.
const raceEnabled = true
