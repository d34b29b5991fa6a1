package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"ppatc/internal/carbon"
	"ppatc/internal/embench"
	"ppatc/internal/obs"
)

// evalWithProvenance runs one all-Si evaluation with provenance enabled.
func evalWithProvenance(t *testing.T) *PPAtC {
	t.Helper()
	w, err := embench.ByName("crc32")
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	grid, err := carbon.GridByName("US")
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	ctx := obs.WithProvenanceEnabled(context.Background())
	res, err := EvaluateContext(ctx, AllSiSystem(), w, grid)
	if err != nil {
		t.Fatalf("EvaluateContext: %v", err)
	}
	return res
}

// TestProvenanceCoversEveryStage asserts the satellite requirement that
// every pipeline stage contributes at least one provenance field.
func TestProvenanceCoversEveryStage(t *testing.T) {
	res := evalWithProvenance(t)
	got := obs.Stages(res.Provenance)
	have := make(map[string]bool, len(got))
	for _, s := range got {
		have[s] = true
	}
	for _, stage := range Stages() {
		if !have[stage] {
			t.Errorf("stage %q contributed no provenance fields (got stages %v)", stage, got)
		}
	}
}

// TestProvenanceGoldenAllSi cross-checks recorded intermediates against
// the final PPAtC numbers on the Table-2 all-Si design: the provenance
// record must describe the run that actually happened.
func TestProvenanceGoldenAllSi(t *testing.T) {
	res := evalWithProvenance(t)
	checks := []struct {
		stage, name string
		want        float64
	}{
		{StageEmbench, "cycles", float64(res.Cycles)},
		{StageEDRAM, "macro_area_mm2", res.MemoryArea.SquareMillimeters()},
		{StageEDRAM, "memory_pj_per_cycle", res.MemPerCycle.Picojoules()},
		{StageSynth, "dynamic_energy_pj_per_cycle", res.M0DynamicPerCycle.Picojoules()},
		{StageSynth, "leakage_power_mw", res.M0LeakagePower.Milliwatts()},
		{StageFloorplan, "die_area_mm2", res.TotalArea.SquareMillimeters()},
		{StageCarbon, "epa_kwh_per_wafer", res.EPA.KilowattHours()},
		{StageCarbon, "dies_per_wafer", float64(res.DiesPerWafer)},
		{StageCarbon, "yield", res.Yield},
		{StageCarbon, "embodied_per_good_die_g", res.EmbodiedPerGoodDie.Grams()},
		{StageCarbon, "operational_power_mw", res.OperationalPower.Milliwatts()},
	}
	for _, c := range checks {
		f, ok := obs.Lookup(res.Provenance, c.stage, c.name)
		if !ok {
			t.Errorf("provenance missing %s/%s", c.stage, c.name)
			continue
		}
		if math.Abs(f.Value-c.want) > 1e-9*math.Max(1, math.Abs(c.want)) {
			t.Errorf("%s/%s = %g, want %g (final result disagrees with its provenance)",
				c.stage, c.name, f.Value, c.want)
		}
	}
	// The all-Si paper design yields 90% good dies; a drifting pipeline
	// would surface here before the Table-2 golden files catch it.
	if y, ok := obs.Lookup(res.Provenance, StageCarbon, "yield"); !ok || y.Value != 0.9 {
		t.Errorf("all-Si yield provenance = %v, want 0.9", y.Value)
	}
}

// TestEvaluateWithoutProvenanceIsBare: the default path records nothing.
func TestEvaluateWithoutProvenanceIsBare(t *testing.T) {
	w, err := embench.ByName("crc32")
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	grid, err := carbon.GridByName("US")
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	res, err := Evaluate(AllSiSystem(), w, grid)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if res.Provenance != nil {
		t.Fatalf("Evaluate without provenance recorded %d fields, want none", len(res.Provenance))
	}
}

// TestEvaluateTraceSpans asserts that a traced evaluation produces one
// "evaluate" root whose children are exactly the pipeline stages in
// order.
func TestEvaluateTraceSpans(t *testing.T) {
	w, err := embench.ByName("crc32")
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	grid, err := carbon.GridByName("US")
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	tr := obs.NewTrace("")
	ctx := obs.WithTrace(context.Background(), tr)
	if _, err := EvaluateContext(ctx, M3DSystem(), w, grid); err != nil {
		t.Fatalf("EvaluateContext: %v", err)
	}
	tree := tr.Tree()
	if len(tree) != 1 || tree[0].Name != "evaluate" {
		t.Fatalf("want one 'evaluate' root, got %+v", tree)
	}
	var kids []string
	for _, c := range tree[0].Children {
		kids = append(kids, c.Name)
	}
	want := Stages()
	if len(kids) != len(want) {
		t.Fatalf("stage spans = %v, want %v", kids, want)
	}
	for i := range want {
		if kids[i] != want[i] {
			t.Fatalf("stage spans = %v, want %v", kids, want)
		}
	}
}

// TestSuiteTraceSpans asserts SuiteContext's span shape under one
// "suite" root: first one "leaves" span holding every workload's embench
// span and both edram spans (the suite's one leaf fan-out), then one
// span per workload holding its two evaluate spans, without
// interleaving. The suite's memo runs each stage once per key, so across
// the trace there is one embench span per workload and one edram, synth,
// floorplan and carbon span per design, and the leaf stages appear only
// under the leaves span.
func TestSuiteTraceSpans(t *testing.T) {
	grid, err := carbon.GridByName("US")
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	tr := obs.NewTrace("")
	ctx := obs.WithTrace(context.Background(), tr)
	rows, err := SuiteContext(ctx, grid)
	if err != nil {
		t.Fatalf("SuiteContext: %v", err)
	}
	tree := tr.Tree()
	if len(tree) != 1 || tree[0].Name != "suite" {
		t.Fatalf("want one 'suite' root, got %d roots", len(tree))
	}
	// One fan-out runs every workload's simulation and both eDRAM builds,
	// then each workload replays them in its two evaluations.
	kids := tree[0].Children
	if got := len(kids); got != 1+len(rows) {
		t.Fatalf("suite has %d child spans, want 1 leaves + %d workloads", got, len(rows))
	}
	if kids[0].Name != "leaves" {
		t.Fatalf("suite's first child span = %q, want leaves", kids[0].Name)
	}
	if n := spanCounts(kids[0].Children); n[StageEmbench] != len(rows) || n[StageEDRAM] != 2 || len(kids[0].Children) != len(rows)+2 {
		t.Fatalf("leaves span holds %v, want %d embench and 2 edram", n, len(rows))
	}
	for _, wl := range kids[1:] {
		if wl.Name != "workload" {
			t.Fatalf("unexpected child span %q under suite", wl.Name)
		}
		var names []string
		for _, c := range wl.Children {
			names = append(names, c.Name)
		}
		if len(names) != 2 || names[0] != "evaluate" || names[1] != "evaluate" {
			t.Fatalf("workload span children = %v, want [evaluate evaluate]", names)
		}
		for _, ev := range wl.Children {
			if n := spanCounts(ev.Children); n[StageEmbench]+n[StageEDRAM] != 0 {
				t.Fatalf("evaluation span re-ran a leaf stage: %v", n)
			}
		}
	}
	want := map[string]int{
		"suite": 1, "workload": len(rows), "leaves": 1, "evaluate": 2 * len(rows),
		StageEmbench: len(rows), StageEDRAM: 2, StageSynth: 2, StageFloorplan: 2, StageCarbon: 2,
	}
	if got := spanCounts(tree); !reflect.DeepEqual(got, want) {
		t.Errorf("suite span counts = %v, want %v", got, want)
	}
}
