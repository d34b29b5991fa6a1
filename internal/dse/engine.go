package dse

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ppatc/internal/core"
	"ppatc/internal/obs"
)

// Options tunes a Run. The zero value is usable: GOMAXPROCS workers, no
// resumed points, no hooks.
type Options struct {
	// Workers caps the evaluation concurrency (<=0 means GOMAXPROCS).
	// The worker count never changes results — only wall-clock time.
	Workers int
	// Completed holds already computed results keyed by point index
	// (StoredCompleted); the engine emits them verbatim without
	// re-evaluating.
	Completed map[int]Result
	// OnComplete fires once per freshly evaluated point, in completion
	// order, before the point appears anywhere else — the persistence
	// hook (PersistPoint). Calls are serialized. A non-nil error cancels
	// the run.
	OnComplete func(Result) error
	// OnResult fires once per point in plan-index order — the streaming
	// hook. Calls are serialized. A non-nil error cancels the run.
	OnResult func(Result) error
	// EvalCounter, when set, is incremented once per freshly evaluated
	// and recorded point (resumed points don't count).
	EvalCounter *obs.Counter
	// Memo, when set, is the stage memo to evaluate through, letting a
	// caller share stage results across runs (e.g. successive sweeps over
	// the same designs). Nil means a fresh per-run memo.
	Memo *core.Memo
}

// Run expands the spec and evaluates every point on a worker pool.
// Results are returned (and streamed via OnResult) in plan order, and
// are identical for any worker count: the plan expansion is serial, the
// per-point work is a pure function of the point, and every result
// lands in its own plan slot, released in index order. Cancelling ctx
// stops the run early with ctx.Err(); points already handed to
// OnComplete are durable.
func Run(ctx context.Context, spec *Spec, opts Options) ([]Result, error) {
	plan, err := Expand(spec)
	if err != nil {
		return nil, err
	}
	return RunPlan(ctx, plan, opts)
}

// RunPlan executes an already expanded plan. See Run. Resumed results
// in opts.Completed are keyed by plan index; entries outside the plan
// are ignored.
func RunPlan(ctx context.Context, plan *Plan, opts Options) ([]Result, error) {
	points := plan.Points
	total := len(points)
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if total == 0 {
		return nil, fmt.Errorf("dse: empty plan")
	}

	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	ctx, span := obs.StartSpan(ctx, "sweep")
	if span != nil {
		span.SetStr("spec", plan.Spec.Name)
		span.SetFloat("points", float64(total))
		defer span.End()
	}

	// Results are written in place: resumed ones now, fresh ones by the
	// worker that evaluates them.
	results := make([]Result, total)
	present := make([]bool, total)
	for i, r := range opts.Completed {
		if i >= 0 && i < total {
			results[i] = r
			present[i] = true
		}
	}
	next := 0 // first index not yet released
	release := func() error {
		for next < total && present[next] {
			if opts.OnResult != nil {
				if err := opts.OnResult(results[next]); err != nil {
					return fmt.Errorf("dse: result hook: %w", err)
				}
			}
			next++
		}
		return nil
	}
	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
			cancel(err)
		}
	}
	if err := release(); err != nil {
		return nil, err
	}

	// The feed: every point still to evaluate, in memo-locality order —
	// grouped by core tuple so points sharing stage inputs run close
	// together — which never changes results or output order (release
	// goes by plan index whatever the evaluation order). Each distinct
	// system and workload among them resolves once, and their leaf
	// stages run concurrently before any worker starts.
	memo := opts.Memo
	if memo == nil {
		memo = core.NewMemo()
	}
	ev := newEvaluator(plan.UseGrid, memo)
	order := feedOrder(points)
	feed := order[:0]
	for _, i := range order {
		if !present[i] {
			feed = append(feed, i)
			ev.resolve(&points[i])
		}
	}
	if len(feed) > 0 {
		if err := memo.FanOutLeaves(ctx, ev.kernels, ev.designs); err != nil {
			return nil, runCause(ctx, err)
		}
	}

	// Workers claim runs of the feed through a shared cursor, evaluate
	// each point into its own results slot and hand the collector the
	// finished run. A run that ends after a cancellation is dropped: a
	// cancelled evaluation is not a result.
	batch := min(maxBatch, max(1, len(feed)/(workers*batchesPerWorker)))
	if n := (len(feed) + batch - 1) / batch; workers > n {
		workers = n
	}
	if span != nil {
		span.SetFloat("workers", float64(workers))
	}
	var cursor atomic.Int64
	// Room for one run per worker, so that a hand-off seldom waits on a
	// collector busy in the OnComplete and OnResult hooks.
	done := make(chan feedRun, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				from := int(cursor.Add(int64(batch))) - batch
				if from >= len(feed) {
					return
				}
				to := min(from+batch, len(feed))
				for _, i := range feed[from:to] {
					results[i] = ev.evaluate(ctx, &points[i])
				}
				if ctx.Err() != nil {
					return
				}
				done <- feedRun{from, to}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()

	// Collector: record completions as their runs land (OnComplete),
	// release results in index order (OnResult). done is always drained,
	// so a worker never blocks on its hand-off for long. Recording stops
	// at the first point after a cancellation, wherever it falls in a
	// run.
	for run := range done {
		for _, i := range feed[run.from:run.to] {
			if runErr != nil || ctx.Err() != nil {
				break // drain
			}
			if opts.OnComplete != nil {
				if err := opts.OnComplete(results[i]); err != nil {
					fail(fmt.Errorf("dse: completion hook: %w", err))
					break
				}
			}
			// Counted only once durably recorded, so a cancel+resume pair
			// evaluates every point exactly once between them.
			if opts.EvalCounter != nil {
				opts.EvalCounter.Add(1)
			}
			present[i] = true
		}
		if runErr == nil {
			if err := release(); err != nil {
				fail(err)
			}
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	if err := ctx.Err(); err != nil {
		return nil, runCause(ctx, err)
	}
	if next != total {
		return nil, fmt.Errorf("dse: internal: released %d of %d points", next, total)
	}
	return results, nil
}

// A worker claims up to maxBatch points of the feed at a time, fewer on
// a short feed so that every worker gets about batchesPerWorker runs:
// one claim and one hand-off per run instead of per point, while a
// small sweep of cold points still spreads over the pool.
const (
	maxBatch         = 64
	batchesPerWorker = 4
)

// feedRun is a finished run of the feed, positions [from, to).
type feedRun struct{ from, to int }

// runCause is the error of a run whose context ended: the cause it was
// cancelled with, if any, else err.
func runCause(ctx context.Context, err error) error {
	if cause := context.Cause(ctx); cause != nil {
		return cause
	}
	return err
}

// feedOrder returns the points' positions in evaluation-feed order:
// stable-grouped by the stage-heavy coordinate (system, workload,
// clock) in order of first occurrence. Plan expansion puts the grid
// axis between workload and clock, so a mixed grid × clock sweep would
// otherwise alternate clocks between grid steps; grouping keeps every
// point that shares embench/eDRAM/synth/floorplan memo entries
// contiguous. Deterministic, and invisible in the output: the reorder
// buffer releases results by plan index regardless of feed order.
func feedOrder(points []Point) []int {
	type stageKey struct {
		system, workload string
		clock            float64
	}
	rank := make(map[stageKey]int)
	ranks := make([]int, len(points))
	for i, p := range points {
		k := stageKey{p.System, p.Workload, p.ClockMHz}
		r, ok := rank[k]
		if !ok {
			r = len(rank)
			rank[k] = r
		}
		ranks[i] = r
	}
	// A counting sort by rank: stable, and linear in the points.
	next := make([]int, len(rank)+1)
	for _, r := range ranks {
		next[r+1]++
	}
	for r := 1; r < len(next); r++ {
		next[r] += next[r-1]
	}
	order := make([]int, len(points))
	for i, r := range ranks {
		order[next[r]] = i
		next[r]++
	}
	return order
}
