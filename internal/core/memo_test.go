package core

import (
	"context"
	"reflect"
	"testing"

	"ppatc/internal/carbon"
	"ppatc/internal/embench"
	"ppatc/internal/obs"
	"ppatc/internal/units"
)

// TestMemoMatchesDirect pins the memo's defining property: evaluations
// through a warm memo are identical — provenance included — to direct
// evaluation. The memo replays pure stage outputs; it must never change
// a number.
func TestMemoMatchesDirect(t *testing.T) {
	ctx := obs.WithProvenanceEnabled(context.Background())
	grids := []carbon.Grid{carbon.GridUS, carbon.GridCoal}
	m := NewMemo()
	for _, sys := range Systems() {
		for _, w := range embench.Workloads() {
			for _, grid := range grids {
				direct, err := EvaluateContext(ctx, sys, w, grid)
				if err != nil {
					t.Fatalf("direct %s/%s/%s: %v", sys.Name, w.Name, grid.Name, err)
				}
				// Twice per tuple: first fills stage entries, second replays
				// every stage from the memo.
				for pass := 0; pass < 2; pass++ {
					got, err := m.EvaluateContext(ctx, sys, w, grid)
					if err != nil {
						t.Fatalf("memo %s/%s/%s pass %d: %v", sys.Name, w.Name, grid.Name, pass, err)
					}
					if !reflect.DeepEqual(got, direct) {
						t.Errorf("memo %s/%s/%s pass %d: result differs from direct evaluation",
							sys.Name, w.Name, grid.Name, pass)
					}
				}
			}
		}
	}
}

// TestMemoReusesStages pins the incremental behaviour on a grid-axis
// sweep: after the first tuple, only the carbon stage re-runs.
func TestMemoReusesStages(t *testing.T) {
	ctx := context.Background()
	sys := AllSiSystem()
	w := embench.Workloads()[0]
	m := NewMemo()
	grids := []carbon.Grid{
		carbon.GridUS, carbon.GridCoal, carbon.GridSolar,
		carbon.CustomGrid("grid-123", units.GramsPerKilowattHour(123)),
	}
	for _, grid := range grids {
		if _, err := m.EvaluateContext(ctx, sys, w, grid); err != nil {
			t.Fatalf("%s: %v", grid.Name, err)
		}
	}
	stats := m.Stats()
	for _, stage := range []string{StageEmbench, StageEDRAM, StageSynth, StageFloorplan} {
		if got := stats[stage].Misses; got != 1 {
			t.Errorf("stage %s ran %d times across the grid sweep, want 1", stage, got)
		}
		if got := stats[stage].Hits; got != int64(len(grids)-1) {
			t.Errorf("stage %s: %d memo hits, want %d", stage, got, len(grids)-1)
		}
	}
	if got := stats[StageCarbon].Misses; got != int64(len(grids)) {
		t.Errorf("carbon stage ran %d times, want %d (once per grid intensity)", got, len(grids))
	}
}

// TestMemoDoesNotCacheCancellation: a cancelled evaluation must not
// poison a stage key for later callers.
func TestMemoDoesNotCacheCancellation(t *testing.T) {
	m := NewMemo()
	sys := AllSiSystem()
	w := embench.Workloads()[0]
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	// The pre-stage ctx.Err check rejects this before any stage runs; go
	// through memoDo directly to exercise the cache-refusal path.
	if _, err := memoDo(m, memoStageEmbench, "poison", func() (any, error) {
		return nil, cancelled.Err()
	}); err == nil {
		t.Fatal("expected cancellation error")
	}
	if got := m.misses[memoStageEmbench].Load(); got != 0 {
		t.Fatalf("cancelled run was cached (misses=%d)", got)
	}
	if _, err := m.EvaluateContext(context.Background(), sys, w, carbon.GridUS); err != nil {
		t.Fatalf("evaluation after cancelled run: %v", err)
	}
}

// TestTable2SharesOneSimulation pins Table2Context's per-call memo: its
// results equal two independent evaluations, provenance included, while
// a trace records a single ISA simulation that the M3D evaluation
// replays.
func TestTable2SharesOneSimulation(t *testing.T) {
	w, err := embench.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	ctx := obs.WithProvenanceEnabled(context.Background())
	tr := obs.NewTrace("")
	si, m3d, _, err := Table2Context(obs.WithTrace(ctx, tr), w, carbon.GridUS)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sys SystemDesign
		got *PPAtC
	}{{AllSiSystem(), si}, {M3DSystem(), m3d}} {
		want, err := EvaluateContext(ctx, c.sys, w, carbon.GridUS)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c.got, want) {
			t.Errorf("%s: Table2Context result differs from EvaluateContext", c.sys.Name)
		}
	}

	spans := map[string]int{}
	var count func(nodes []obs.SpanNode)
	count = func(nodes []obs.SpanNode) {
		for _, n := range nodes {
			spans[n.Name]++
			count(n.Children)
		}
	}
	count(tr.Tree())
	if spans["evaluate"] != 2 || spans[StageEmbench] != 1 || spans[StageEDRAM] != 2 {
		t.Errorf("traced Table2Context spans = %v, want 2 evaluate, 1 %s, 2 %s",
			spans, StageEmbench, StageEDRAM)
	}
}
