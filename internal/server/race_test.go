//go:build race

package server

// raceEnabled reports a -race build, whose detector slows the model's
// pure-CPU stages roughly tenfold; sweeps that only re-check values
// narrow their domain under it.
const raceEnabled = true
