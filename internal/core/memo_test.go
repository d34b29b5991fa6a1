package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ppatc/internal/carbon"
	"ppatc/internal/embench"
	"ppatc/internal/obs"
	"ppatc/internal/tcdp"
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

// spanCounts counts the spans of a trace forest by name.
func spanCounts(nodes []obs.SpanNode) map[string]int {
	out := map[string]int{}
	var walk func([]obs.SpanNode)
	walk = func(nodes []obs.SpanNode) {
		for _, n := range nodes {
			out[n.Name]++
			walk(n.Children)
		}
	}
	walk(nodes)
	return out
}

// TestTable2SharesOneSimulation pins Table2Context's per-call memo and
// its leaf fan-out: the results equal two independent evaluations,
// provenance included, at any GOMAXPROCS (CI runs it at -cpu 1,2),
// while a trace records a single ISA simulation and both eDRAM builds
// under one "leaves" span, which the two evaluations then replay.
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

	tree := tr.Tree()
	spans := spanCounts(tree)
	if spans["evaluate"] != 2 || spans[StageEmbench] != 1 || spans[StageEDRAM] != 2 {
		t.Errorf("traced Table2Context spans = %v, want 2 evaluate, 1 %s, 2 %s",
			spans, StageEmbench, StageEDRAM)
	}
	var roots []string
	for _, n := range tree {
		roots = append(roots, n.Name)
	}
	if len(roots) != 3 || roots[0] != "leaves" || roots[1] != "evaluate" || roots[2] != "evaluate" {
		t.Fatalf("trace roots = %v, want [leaves evaluate evaluate]", roots)
	}
	leaves := spanCounts(tree[0].Children)
	if len(leaves) != 2 || leaves[StageEmbench] != 1 || leaves[StageEDRAM] != 2 {
		t.Errorf("leaves span holds %v, want 1 %s and 2 %s", leaves, StageEmbench, StageEDRAM)
	}
}

// TestPairFanOutCancellation pins the fan-out's cancellation contract:
// a context cancelled before or during the fan-out returns its error,
// the memo keeps no error and no leaf that had not started, a later
// call on a live context succeeds, and no goroutine outlives the call.
func TestPairFanOutCancellation(t *testing.T) {
	w, err := embench.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	grid := carbon.GridUS
	si, m3d := AllSiSystem(), M3DSystem()
	start := runtime.NumGoroutine()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := Table2Context(cancelled, w, grid); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Table2Context: err = %v, want context.Canceled", err)
	}
	m := NewMemo()
	if _, _, err := evaluatePair(cancelled, m, si, m3d, w, grid); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled pair: err = %v, want context.Canceled", err)
	}
	for stage, st := range m.Stats() {
		if st != (MemoStageStats{}) {
			t.Errorf("pre-cancelled pair touched the %s stage: %+v", stage, st)
		}
	}

	// Mid-fan-out: another caller holds the simulation's memo entry, so
	// the fan-out's embench leaf waits on it. The context is cancelled
	// once the fan-out's span is open, then the entry is released
	// unfilled: the waiting leaf must not start the simulation.
	m = NewMemo()
	v, _ := m.entries[memoStageEmbench].LoadOrStore(w.Name, &memoEntry{})
	held := v.(*memoEntry)
	held.mu.Lock()
	tr := obs.NewTrace("")
	ctx, cancel := context.WithCancel(obs.WithTrace(context.Background(), tr))
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, _, err := evaluatePair(ctx, m, si, m3d, w, grid)
		errc <- err
	}()
	for spanCounts(tr.Tree())["leaves"] == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	held.mu.Unlock()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("pair cancelled mid-fan-out: err = %v, want context.Canceled", err)
	}
	if got := m.Stats()[StageEmbench].Misses; got != 0 {
		t.Errorf("the simulation ran %d times after cancellation, want 0", got)
	}
	for stage := range m.entries {
		m.entries[stage].Range(func(key, v any) bool {
			if e := v.(*memoEntry); e.done.Load() && e.err != nil {
				t.Errorf("memo cached an error for %s %v: %v", Stages()[stage], key, e.err)
			}
			return true
		})
	}

	gotSi, gotM3D, err := evaluatePair(context.Background(), m, si, m3d, w, grid)
	if err != nil {
		t.Fatalf("pair on a live context after cancellation: %v", err)
	}
	for _, c := range []struct {
		sys SystemDesign
		got *PPAtC
	}{{si, gotSi}, {m3d, gotM3D}} {
		want, err := EvaluateContext(context.Background(), c.sys, w, grid)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c.got, want) {
			t.Errorf("%s: pair result after cancellation differs from EvaluateContext", c.sys.Name)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > start {
		t.Errorf("%d goroutines after the fan-outs, %d before", n, start)
	}
}

// TestFanOutLeavesSet pins the fan-out over a set of workloads and
// designs, the shape a sweep uses: repeated names run once, a trace
// shows one "leaves" span with one simulation per workload and one
// build per design, a second fan-out starts nothing, and a context
// cancelled before the fan-out, or during it while every leaf waits on
// another caller's entry, caches nothing and leaves no goroutine behind.
func TestFanOutLeavesSet(t *testing.T) {
	var ws []embench.Workload
	for _, name := range []string{"huff", "crc32", "huff"} {
		w, err := embench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	designs := []SystemDesign{AllSiSystem(), M3DSystem(), AllSiSystem()}
	start := runtime.NumGoroutine()

	m := NewMemo()
	tr := obs.NewTrace("")
	if err := m.FanOutLeaves(obs.WithTrace(context.Background(), tr), ws, designs); err != nil {
		t.Fatal(err)
	}
	tree := tr.Tree()
	if len(tree) != 1 || tree[0].Name != "leaves" {
		t.Fatalf("trace roots = %+v, want one leaves span", tree)
	}
	if got := spanCounts(tree[0].Children); len(got) != 2 || got[StageEmbench] != 2 || got[StageEDRAM] != 2 {
		t.Errorf("leaves span holds %v, want 2 %s and 2 %s", got, StageEmbench, StageEDRAM)
	}
	want := map[string]MemoStageStats{StageEmbench: {Misses: 2}, StageEDRAM: {Misses: 2}}
	for stage, st := range m.Stats() {
		if st != want[stage] {
			t.Errorf("%s: %+v after the fan-out, want %+v", stage, st, want[stage])
		}
	}
	tr = obs.NewTrace("")
	if err := m.FanOutLeaves(obs.WithTrace(context.Background(), tr), ws, designs); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.Tree()); n != 0 {
		t.Errorf("a warm fan-out opened %d spans, want none", n)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	m = NewMemo()
	if err := m.FanOutLeaves(cancelled, ws, designs); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled fan-out: err = %v, want context.Canceled", err)
	}
	assertMemoEmpty(t, m, "pre-cancelled fan-out")

	// Mid-fan-out: another caller holds every leaf's entry, so each leaf
	// waits; the context is cancelled once the leaves span is open, then
	// the entries are released unfilled and no leaf may start.
	m = NewMemo()
	var held []*memoEntry
	for _, key := range []struct {
		stage int
		name  string
	}{{memoStageEmbench, "huff"}, {memoStageEmbench, "crc32"}, {memoStageEDRAM, AllSiName}, {memoStageEDRAM, M3DName}} {
		v, _ := m.entries[key.stage].LoadOrStore(key.name, &memoEntry{})
		e := v.(*memoEntry)
		e.mu.Lock()
		held = append(held, e)
	}
	tr = obs.NewTrace("")
	ctx, cancel := context.WithCancel(obs.WithTrace(context.Background(), tr))
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- m.FanOutLeaves(ctx, ws, designs) }()
	for spanCounts(tr.Tree())["leaves"] == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	for _, e := range held {
		e.mu.Unlock()
	}
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("fan-out cancelled midway: err = %v, want context.Canceled", err)
	}
	assertMemoEmpty(t, m, "fan-out cancelled midway")

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > start {
		t.Errorf("%d goroutines after the fan-outs, %d before", n, start)
	}
}

// assertMemoEmpty fails unless m ran no stage and holds no result.
func assertMemoEmpty(t *testing.T, m *Memo, what string) {
	t.Helper()
	for stage, st := range m.Stats() {
		if st != (MemoStageStats{}) {
			t.Errorf("%s touched the %s stage: %+v", what, stage, st)
		}
	}
	for stage := range m.entries {
		m.entries[stage].Range(func(key, v any) bool {
			if v.(*memoEntry).done.Load() {
				t.Errorf("%s cached %s %v", what, Stages()[stage], key)
			}
			return true
		})
	}
}

// TestPairWarmMemoAllocs guards the daemon's what-if path: on a warm
// memo, EvaluatePairContext allocates no more than the two
// EvaluateContext calls on freshly built designs that it replaced. A
// fan-out that started a goroutine would allocate its closure and
// WaitGroup, so this also pins that a warm memo starts none.
func TestPairWarmMemoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	w, err := embench.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	ctx, grid := context.Background(), carbon.GridUS
	m := NewMemo()
	if _, _, err := m.EvaluatePairContext(ctx, w, grid); err != nil {
		t.Fatal(err)
	}
	pair := testing.AllocsPerRun(50, func() {
		if _, _, err := m.EvaluatePairContext(ctx, w, grid); err != nil {
			t.Fatal(err)
		}
	})
	twoCalls := testing.AllocsPerRun(50, func() {
		if _, err := m.EvaluateContext(ctx, AllSiSystem(), w, grid); err != nil {
			t.Fatal(err)
		}
		if _, err := m.EvaluateContext(ctx, M3DSystem(), w, grid); err != nil {
			t.Fatal(err)
		}
	})
	if pair > twoCalls {
		t.Errorf("warm pair evaluation allocates %.0f times, two EvaluateContext calls %.0f", pair, twoCalls)
	}
	t.Logf("warm pair: %.0f allocs; two EvaluateContext calls: %.0f", pair, twoCalls)
}

// TestSuiteMatchesIndependentEvaluations pins SuiteContext's per-call
// memo and fan-out: every row equals the one built from independent
// EvaluateContext calls, and the JSON encoding is byte-identical to the
// committed `ppatc suite -json` output taken before the suite memoized.
func TestSuiteMatchesIndependentEvaluations(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates every workload three times")
	}
	grid := carbon.GridUS
	rows, err := SuiteContext(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	var want []SuiteRow
	for _, w := range embench.Workloads() {
		si, err := EvaluateContext(context.Background(), AllSiSystem(), w, grid)
		if err != nil {
			t.Fatal(err)
		}
		m3d, err := EvaluateContext(context.Background(), M3DSystem(), w, grid)
		if err != nil {
			t.Fatal(err)
		}
		row, err := suiteRow(w, si, m3d, tcdp.PaperScenario())
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, row)
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("SuiteContext rows differ from independent evaluations:\n got %+v\nwant %+v", rows, want)
	}

	var buf bytes.Buffer
	if err := WriteSuiteJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "suite_us.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Errorf("suite JSON differs from testdata/suite_us.json:\n%s", buf.Bytes())
	}
}
