// Package dse is the design-space-exploration engine: it turns the
// paper's one-point PPAtC evaluation into first-class parallel sweeps.
// A declarative SweepSpec names axes over the design space — system,
// workload, energy grid, clock, lifetime, yield, CI_use — each given as
// an explicit list, a linspace/logspace range, or a sampling
// distribution for Monte Carlo axes. Expand turns the spec into a
// deterministic evaluation plan (the cross product of the axes, Monte
// Carlo axes jointly sampled per replica from the root seed), and Run
// executes the plan on a context-cancellable worker pool whose results
// are byte-identical at any worker count.
//
// On top of the raw results sit the paper's design-space analyses,
// generalized: Pareto-frontier extraction over user-chosen objectives
// (Fig. 6a's delay-vs-carbon isoline as a frontier), per-axis
// sensitivity summaries (Fig. 6b as a table), and win-probability
// aggregation paired across the system axis (the Monte Carlo companion
// of tcdp.MonteCarlo).
//
// Completed points persist to a store.ResultStore under coordinate keys
// (PersistPoint), so a cancelled CLI run, a restarted ppatcd daemon, or
// any later sweep sharing points adopts them (StoredCompleted) instead
// of recomputing.
package dse
