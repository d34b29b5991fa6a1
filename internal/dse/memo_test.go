package dse

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"ppatc/internal/core"
	"ppatc/internal/obs"
)

// mixedAxisSpec is the memo's showcase shape: a grid-intensity axis
// crossed with systems and a clock axis, so most points differ only in
// the carbon stage's input.
func mixedAxisSpec(intensities, clocks int) *Spec {
	vals := make([]float64, intensities)
	for i := range vals {
		vals[i] = 40 + 40*float64(i)
	}
	mhz := make([]float64, clocks)
	for i := range mhz {
		mhz[i] = 500 - 40*float64(i)
	}
	return &Spec{
		Name: "memo-mixed",
		Axes: Axes{
			System:   []string{"si", "m3d"},
			Workload: []string{"huff"},
			Grid:     &GridAxis{Intensity: &NumericAxis{Values: vals}},
			ClockMHz: &NumericAxis{Values: mhz},
		},
	}
}

// TestMemoByteIdenticalNDJSON pins the memo's contract on a mixed-axis
// sweep (huff; intensities 48, 380, 563 and 820 g/kWh; 300 and 500 MHz;
// both systems): the sweep, whose points share one memo, emits the
// NDJSON of a reference that evaluates every point in isolation,
// through a fresh evaluator and memo of its own.
func TestMemoByteIdenticalNDJSON(t *testing.T) {
	spec := &Spec{
		Name: "memo-identity",
		Axes: Axes{
			Workload: []string{"huff"},
			Grid:     &GridAxis{Intensity: &NumericAxis{Values: []float64{48, 380, 563, 820}}},
			ClockMHz: &NumericAxis{Values: []float64{300, 500}},
		},
	}
	plan, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	memoized, err := RunPlan(context.Background(), plan, Options{Workers: 4})
	if err != nil {
		t.Fatalf("memoized run: %v", err)
	}
	isolated := make([]Result, len(plan.Points))
	for i := range plan.Points {
		ev := newEvaluator(plan.UseGrid, core.NewMemo())
		ev.resolve(&plan.Points[i])
		isolated[i] = ev.evaluate(context.Background(), &plan.Points[i])
	}
	if a, b := ndjson(t, isolated), ndjson(t, memoized); !bytes.Equal(a, b) {
		t.Fatalf("shared-memo NDJSON differs from per-point evaluation:\n--- isolated ---\n%s--- shared memo ---\n%s", a, b)
	}
}

// TestMemoStageReduction pins the ≥10× incremental-work claim at the
// stage level: across a mixed-axis sweep the stage-heavy pipeline steps
// run once per (system, workload, clock) coordinate — not once per
// point — so total stage executions drop more than tenfold versus the
// non-memoized sweep.
func TestMemoStageReduction(t *testing.T) {
	spec := mixedAxisSpec(8, 6)
	plan, err := Expand(spec)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	points := len(plan.Points) // 2 systems × 8 intensities × 6 clocks = 96
	memo := core.NewMemo()
	if _, err := RunPlan(context.Background(), plan, Options{Workers: 4, Memo: memo}); err != nil {
		t.Fatalf("memoized run: %v", err)
	}
	stats := memo.Stats()
	var runs int64
	for _, s := range stats {
		runs += s.Misses
	}
	// Without the memo the tuple cache still deduplicates exact tuples,
	// but every distinct tuple runs all five stages.
	plainRuns := int64(points * len(core.Stages()))
	if runs*10 > plainRuns {
		t.Fatalf("memoized sweep ran %d stage executions for %d points (non-memoized: %d); want >=10x reduction\nstats: %+v",
			runs, points, plainRuns, stats)
	}
	// The expensive stages run once per (system, clock) / (workload)
	// coordinate; only carbon tracks the grid axis.
	if got, want := stats[core.StageEmbench].Misses, int64(1); got != want {
		t.Errorf("embench ran %d times, want %d", got, want)
	}
	if got, want := stats[core.StageSynth].Misses, int64(12); got != want {
		t.Errorf("synth ran %d times, want %d (2 systems x 6 clocks)", got, want)
	}
	if got, want := stats[core.StageCarbon].Misses, int64(16); got != want {
		t.Errorf("carbon ran %d times, want %d (2 systems x 8 intensities)", got, want)
	}
}

// TestFeedOrderPreservesOutput pins that memo-locality feeding is
// invisible: every point position appears exactly once in the feed
// order, and (covered by TestMemoByteIdenticalNDJSON) output order is
// untouched.
func TestFeedOrderPreservesOutput(t *testing.T) {
	plan, err := Expand(mixedAxisSpec(5, 2))
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	order := feedOrder(plan.Points)
	if len(order) != len(plan.Points) {
		t.Fatalf("feedOrder returned %d positions for %d points", len(order), len(plan.Points))
	}
	seen := make([]bool, len(plan.Points))
	for _, i := range order {
		if i < 0 || i >= len(seen) || seen[i] {
			t.Fatalf("feedOrder position %d out of range or duplicated", i)
		}
		seen[i] = true
	}
	// Grouped: each (system, workload, clock) coordinate must occupy one
	// contiguous run of the feed order.
	last := make(map[string]int)
	for rank, i := range order {
		p := plan.Points[i]
		key := fmt.Sprintf("%s|%s|%g", p.System, p.Workload, p.ClockMHz)
		if prev, ok := last[key]; ok && prev != rank-1 {
			t.Fatalf("feed order splits group %s (positions %d and %d)", key, prev, rank)
		}
		last[key] = rank
	}
}

// TestSweepFansOutLeaves pins the plan-wide leaf fan-out: a 2-system ×
// 2-workload sweep runs each ISA simulation and eDRAM build exactly
// once, all four under one "leaves" span inside the sweep's span,
// before any tuple evaluates; every tuple then replays both of its
// leaves. A resumed run whose points are all stored runs none, and a
// cancelled context runs none and caches nothing.
func TestSweepFansOutLeaves(t *testing.T) {
	spec := &Spec{
		Name: "fan-out",
		Axes: Axes{
			System:   []string{"si", "m3d"},
			Workload: []string{"huff", "crc32"},
			Grid:     &GridAxis{Names: []string{"US", "Coal"}},
		},
	}
	plan, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	memo := core.NewMemo()
	tr := obs.NewTrace("")
	results, err := RunPlan(obs.WithTrace(context.Background(), tr), plan, Options{Workers: 2, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	tree := tr.Tree()
	if len(tree) != 1 || tree[0].Name != "sweep" || len(tree[0].Children) == 0 || tree[0].Children[0].Name != "leaves" {
		t.Fatalf("trace = %+v, want a sweep span whose first child is leaves", tree)
	}
	if got := spanNames(tree[0].Children[0].Children); len(got) != 2 || got[core.StageEmbench] != 2 || got[core.StageEDRAM] != 2 {
		t.Errorf("leaves span holds %v, want 2 %s and 2 %s", got, core.StageEmbench, core.StageEDRAM)
	}
	if got := spanNames(tree); got[core.StageEmbench] != 2 || got[core.StageEDRAM] != 2 {
		t.Errorf("trace holds %d %s and %d %s spans, want each leaf once", got[core.StageEmbench], core.StageEmbench, got[core.StageEDRAM], core.StageEDRAM)
	}
	// 8 tuples (2 systems × 2 workloads × 2 grids), each replaying its
	// simulation and its eDRAM build.
	stats := memo.Stats()
	for _, stage := range []string{core.StageEmbench, core.StageEDRAM} {
		if got, want := stats[stage], (core.MemoStageStats{Hits: 8, Misses: 2}); got != want {
			t.Errorf("%s: %+v, want %+v", stage, got, want)
		}
	}

	completed := make(map[int]Result, len(results))
	for _, r := range results {
		completed[r.Index] = r
	}
	memo = core.NewMemo()
	if _, err := RunPlan(context.Background(), plan, Options{Completed: completed, Memo: memo}); err != nil {
		t.Fatal(err)
	}
	assertNoStageRan(t, memo, "fully resumed run")

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	memo = core.NewMemo()
	if _, err := RunPlan(cancelled, plan, Options{Memo: memo}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	assertNoStageRan(t, memo, "cancelled run")
	if runs := memo.StageRuns(); len(runs) != 0 {
		t.Errorf("cancelled run cached %d stage runs", len(runs))
	}
}

func spanNames(nodes []obs.SpanNode) map[string]int {
	out := map[string]int{}
	for _, n := range nodes {
		out[n.Name]++
		for name, c := range spanNames(n.Children) {
			out[name] += c
		}
	}
	return out
}

func assertNoStageRan(t *testing.T, memo *core.Memo, what string) {
	t.Helper()
	for stage, st := range memo.Stats() {
		if st != (core.MemoStageStats{}) {
			t.Errorf("%s: %s %+v, want untouched", what, stage, st)
		}
	}
}
