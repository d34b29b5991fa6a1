package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"

	"ppatc/internal/dse"
	"ppatc/internal/store"
)

// runSweep drives `ppatc sweep -spec spec.json`: expand the spec, stream
// results to stdout as NDJSON while the worker pool runs, and print the
// analyses (Pareto frontier, sensitivity, win probabilities) to stderr
// so stdout stays machine-readable. With -store-dir, completed points
// persist to a segment store across interrupts: Ctrl-C, re-run, and the
// sweep resumes — as does any later sweep sharing points with it.
func runSweep(ctx context.Context, specPath string, workers int, storeDir string) error {
	if specPath == "" {
		return errors.New("sweep needs -spec <file> (or -spec - for stdin)")
	}
	in := os.Stdin
	if specPath != "-" {
		f, err := os.Open(specPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	spec, err := dse.ParseSpec(in)
	if err != nil {
		return err
	}
	plan, err := dse.Expand(spec)
	if err != nil {
		return err
	}

	// Ctrl-C cancels the run but leaves the stored points behind.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
	defer stop()

	// Lines stream through one encoder; the deferred Flush writes the
	// ones before an error or an interrupt.
	enc := dse.NewEncoder(os.Stdout)
	defer enc.Flush()
	opts := dse.Options{
		Workers:  workers,
		OnResult: func(r dse.Result) error { return enc.Encode(&r) },
	}
	var st *store.SegmentStore
	if storeDir != "" {
		st, err = store.OpenSegmentStore(storeDir, 0)
		if err != nil {
			return err
		}
		defer st.Close() // error paths; the success path checks Close below
		completed, skipped := dse.StoredCompleted(st, plan)
		if skipped > 0 {
			fmt.Fprintf(os.Stderr, "ppatc: %d stored points in %s unreadable; re-evaluating them\n", skipped, storeDir)
		}
		if n := len(completed); n > 0 {
			fmt.Fprintf(os.Stderr, "ppatc: resuming %s: %d/%d points from %s\n",
				spec.Name, n, len(plan.Points), storeDir)
		}
		opts.Completed = completed
		// A failed point write fails the run: the CLI's resume promise
		// rests on every finished point being stored.
		opts.OnComplete = func(r dse.Result) error { return dse.PersistPoint(st, plan, r) }
	}

	results, err := dse.RunPlan(ctx, plan, opts)
	if err != nil {
		if errors.Is(err, context.Canceled) && storeDir != "" {
			fmt.Fprintf(os.Stderr, "ppatc: sweep interrupted; re-run with -store-dir %s to resume\n", storeDir)
		}
		return err
	}
	if st != nil {
		if err := st.Close(); err != nil {
			return err
		}
	}
	if err := enc.Flush(); err != nil {
		return err
	}

	// Analyses go to stderr: the frontier always; sensitivity and win
	// probabilities when the sweep actually varies something to rank.
	front, err := dse.Frontier(results, plan.Spec.Objectives)
	if err != nil {
		return err
	}
	fmt.Fprint(os.Stderr, dse.FormatFrontier(front, plan.Spec.Objectives))
	metric := plan.Spec.Objectives[0].Metric
	if sens, err := dse.Sensitivity(results, metric); err == nil && len(sens) > 0 {
		fmt.Fprint(os.Stderr, dse.FormatSensitivity(sens, metric))
	}
	if len(plan.Spec.Axes.System) > 1 {
		if win, err := dse.Winners(results, plan.Spec.Objectives[0]); err == nil {
			fmt.Fprint(os.Stderr, dse.FormatWinners(win))
		}
	}
	return nil
}
