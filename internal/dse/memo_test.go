package dse

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"ppatc/internal/core"
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
	for i, p := range plan.Points {
		isolated[i] = newEvaluator(plan.UseGrid, core.NewMemo()).evaluate(context.Background(), p)
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
