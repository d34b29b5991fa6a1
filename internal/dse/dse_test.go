package dse

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"ppatc/internal/obs"
	"ppatc/internal/store"
)

// testSpec is a small but multi-axis sweep: 2 systems × 1 workload ×
// 2 grids × 2 lifetimes = 8 points, all sharing 4 core evaluations of
// the cheapest kernel.
func testSpec() *Spec {
	return &Spec{
		Name: "unit",
		Seed: 7,
		Axes: Axes{
			System:         []string{"si", "m3d"},
			Workload:       []string{"huff"},
			Grid:           &GridAxis{Names: []string{"US", "Coal"}},
			LifetimeMonths: &NumericAxis{Values: []float64{12, 24}},
		},
	}
}

// mcSpec adds Monte Carlo axes: the paper's Fig. 6b uncertainty model.
func mcSpec(samples int) *Spec {
	return &Spec{
		Name:    "unit-mc",
		Seed:    11,
		Samples: samples,
		Axes: Axes{
			System:           []string{"si", "m3d"},
			Workload:         []string{"huff"},
			LifetimeMonths:   &NumericAxis{Dist: &DistSpec{Kind: "uniform", Lo: 18, Hi: 30}},
			M3DYield:         &NumericAxis{Dist: &DistSpec{Kind: "uniform", Lo: 0.3, Hi: 0.9}},
			M3DEmbodiedScale: &NumericAxis{Dist: &DistSpec{Kind: "triangular", Lo: 0.8, Mode: 1, Hi: 1.2}},
			CIUseScale:       &NumericAxis{Dist: &DistSpec{Kind: "loguniform", Lo: 0.5, Hi: 2}},
		},
	}
}

func ndjson(t *testing.T, results []Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, results); err != nil {
		t.Fatalf("WriteNDJSON: %v", err)
	}
	return buf.Bytes()
}

// TestDeterminism is the core engine contract: the same spec and seed
// produce byte-identical NDJSON whether the sweep runs on one worker or
// many.
func TestDeterminism(t *testing.T) {
	for _, spec := range []*Spec{testSpec(), mcSpec(8)} {
		r1, err := Run(context.Background(), spec, Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s at 1 worker: %v", spec.Name, err)
		}
		r8, err := Run(context.Background(), spec, Options{Workers: 8})
		if err != nil {
			t.Fatalf("%s at 8 workers: %v", spec.Name, err)
		}
		if got, want := ndjson(t, r8), ndjson(t, r1); !bytes.Equal(got, want) {
			t.Errorf("%s: NDJSON differs between 1 and 8 workers", spec.Name)
		}
	}
}

// TestOnResultOrder checks the streaming hook fires in plan order even
// when completions land out of order.
func TestOnResultOrder(t *testing.T) {
	var seen []int
	_, err := Run(context.Background(), testSpec(), Options{
		Workers:  4,
		OnResult: func(r Result) error { seen = append(seen, r.Index); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 8 {
		t.Fatalf("streamed %d of 8 points", len(seen))
	}
	for i, idx := range seen {
		if idx != i {
			t.Fatalf("streamed order %v, want ascending", seen)
		}
	}
}

// TestRunPlanCompleted checks resumed results are keyed by plan index:
// in-plan entries are emitted verbatim without re-evaluation, entries
// outside the plan are ignored.
func TestRunPlanCompleted(t *testing.T) {
	plan, err := Expand(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunPlan(context.Background(), plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := len(plan.Points)
	ctr := obs.NewRegistry().Counter("test_evals", "test")
	rs, err := RunPlan(context.Background(), plan, Options{
		Completed:   map[int]Result{-1: full[0], 3: full[3], 7: full[7], n: full[1]},
		EvalCounter: ctr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ndjson(t, rs); !bytes.Equal(got, ndjson(t, full)) {
		t.Error("run with completed points differs from a full run")
	}
	if got := ctr.Load(); got != int64(n-2) {
		t.Errorf("evaluated %d of %d points with two resumed, want %d", got, n, n-2)
	}
}

// TestRunResults sanity-checks the physics wiring: coal fab carbon above
// US, longer lifetime means more total carbon, exec time constant across
// carbon axes.
func TestRunResults(t *testing.T) {
	results, err := Run(context.Background(), testSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Result{}
	for _, r := range results {
		if !r.Feasible {
			t.Fatalf("point %d infeasible: %s", r.Index, r.Error)
		}
		if r.TCG <= 0 || r.ExecTimeS <= 0 || r.Yield <= 0 {
			t.Fatalf("point %d has empty metrics: %+v", r.Index, r)
		}
		byKey[fmt.Sprintf("%s|%s|%g", r.System, r.Grid, r.LifetimeMonths)] = r
	}
	for _, sys := range []string{"all-Si", "M3D IGZO/CNFET/Si"} {
		us := byKey[sys+"|US|24"]
		coal := byKey[sys+"|Coal|24"]
		if coal.TCG <= us.TCG {
			t.Errorf("%s: coal-fab TC %.1f not above US-fab %.1f", sys, coal.TCG, us.TCG)
		}
		if coal.ExecTimeS != us.ExecTimeS {
			t.Errorf("%s: exec time moved with fab grid", sys)
		}
		short := byKey[sys+"|US|12"]
		if us.TCG <= short.TCG {
			t.Errorf("%s: 24-month TC %.1f not above 12-month %.1f", sys, us.TCG, short.TCG)
		}
	}
}

// TestYieldOverrideExact checks the Eq. 5 re-amortization shortcut
// against first principles: embodied-per-good-die scales as Y/Y'.
func TestYieldOverrideExact(t *testing.T) {
	base := &Spec{
		Axes: Axes{System: []string{"m3d"}, Workload: []string{"huff"}},
	}
	baseRes, err := Run(context.Background(), base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	over := &Spec{
		Axes: Axes{
			System:   []string{"m3d"},
			Workload: []string{"huff"},
			M3DYield: &NumericAxis{Values: []float64{0.5}},
		},
	}
	overRes, err := Run(context.Background(), over, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, o := baseRes[0], overRes[0]
	want := b.EmbodiedGoodDieG * b.Yield / 0.5
	if rel := math.Abs(o.EmbodiedGoodDieG-want) / want; rel > 1e-12 {
		t.Errorf("overridden embodied %.6g, want %.6g (rel err %g)", o.EmbodiedGoodDieG, want, rel)
	}
	if o.Yield != 0.5 {
		t.Errorf("yield %v, want 0.5", o.Yield)
	}
}

// openSegmentStore opens the segment store under dir, closing it when
// the test ends.
func openSegmentStore(t *testing.T, dir string) *store.SegmentStore {
	t.Helper()
	st, err := store.OpenSegmentStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestResume cancels a sweep mid-run, reopens its segment store, resumes
// from the stored points, and verifies via the obs counter that no point
// was evaluated twice. Recording stops at the point whose OnComplete
// cancels, also on the Monte Carlo spec, whose workers hand points over
// in runs of 50.
func TestResume(t *testing.T) {
	for _, spec := range []*Spec{testSpec(), mcSpec(200)} {
		t.Run(spec.Name, func(t *testing.T) { testResume(t, spec) })
	}
}

func testResume(t *testing.T, spec *Spec) {
	plan, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	st := openSegmentStore(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	var c1 obs.Counter
	var recorded atomic.Int64
	_, err = RunPlan(ctx, plan, Options{
		Workers:     2,
		EvalCounter: &c1,
		OnComplete: func(r Result) error {
			if err := PersistPoint(st, plan, r); err != nil {
				return err
			}
			if recorded.Add(1) == 3 {
				cancel() // die mid-sweep
			}
			return nil
		},
	})
	if err == nil {
		t.Fatal("first run finished despite cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("first run: %v, want context.Canceled", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if c1.Load() != 3 || recorded.Load() != 3 {
		t.Fatalf("first run recorded %d points (%d OnComplete calls), want the 3 up to the cancel",
			c1.Load(), recorded.Load())
	}

	// Resume: reopen the store, feed its results back in.
	st2 := openSegmentStore(t, dir)
	completed, skipped := StoredCompleted(st2, plan)
	if skipped != 0 {
		t.Fatalf("resume skipped %d unreadable points", skipped)
	}
	if len(completed) != int(c1.Load()) {
		t.Fatalf("store recovered %d points, counter says %d", len(completed), c1.Load())
	}
	var c2 obs.Counter
	results, err := RunPlan(context.Background(), plan, Options{
		Workers:     2,
		Completed:   completed,
		EvalCounter: &c2,
		OnComplete:  func(r Result) error { return PersistPoint(st2, plan, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c1.Load() + c2.Load(); got != int64(len(plan.Points)) {
		t.Errorf("evaluations across runs = %d + %d = %d, want exactly %d (no point twice)",
			c1.Load(), c2.Load(), got, len(plan.Points))
	}

	// The resumed output must equal an uninterrupted run.
	clean, err := RunPlan(context.Background(), plan, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ndjson(t, results), ndjson(t, clean)) {
		t.Error("resumed results differ from an uninterrupted run")
	}
}

// TestResumeOtherSpecOverStore runs a different-seed spec over the store
// a first spec filled: coordinate keys let it adopt only points it
// truly shares, so its output is byte-identical to its own clean run.
// For testSpec the seed moves no coordinate (every point is adopted);
// for the Monte Carlo spec it resamples every coordinate.
func TestResumeOtherSpecOverStore(t *testing.T) {
	for name, mk := range map[string]func() *Spec{
		"grid":        testSpec,
		"monte-carlo": func() *Spec { return mcSpec(3) },
	} {
		t.Run(name, func(t *testing.T) {
			st := openSegmentStore(t, t.TempDir())
			planA, err := Expand(mk())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RunPlan(context.Background(), planA, Options{
				Workers:    2,
				OnComplete: func(r Result) error { return PersistPoint(st, planA, r) },
			}); err != nil {
				t.Fatal(err)
			}

			other := mk()
			other.Seed = 99
			planB, err := Expand(other)
			if err != nil {
				t.Fatal(err)
			}
			completed, skipped := StoredCompleted(st, planB)
			if skipped != 0 {
				t.Fatalf("skipped %d unreadable points", skipped)
			}
			resumed, err := RunPlan(context.Background(), planB, Options{Workers: 2, Completed: completed})
			if err != nil {
				t.Fatal(err)
			}
			clean, err := RunPlan(context.Background(), planB, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ndjson(t, resumed), ndjson(t, clean)) {
				t.Errorf("spec resumed over another spec's store (%d points adopted) differs from its clean run", len(completed))
			}
		})
	}
}

// TestParetoProperty checks the frontier definition on random point
// clouds: every non-frontier point is dominated by some frontier point,
// and no frontier point dominates another.
func TestParetoProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	objs := []Objective{{Metric: "exec_time_s"}, {Metric: "tc_g", Maximize: false}}
	for trial := 0; trial < 20; trial++ {
		results := make([]Result, 60)
		for i := range results {
			results[i] = Result{
				Index:     i,
				Feasible:  rng.Float64() > 0.1,
				ExecTimeS: rng.Float64(),
				TCG:       rng.Float64(),
			}
		}
		front, err := Frontier(results, objs)
		if err != nil {
			t.Fatal(err)
		}
		inFront := map[int]bool{}
		for _, f := range front {
			inFront[f.Index] = true
		}
		score := func(r Result) []float64 { return []float64{r.ExecTimeS, r.TCG} }
		for i, a := range front {
			for k, b := range front {
				if i != k && dominates(score(a), score(b)) {
					t.Fatalf("trial %d: frontier point %d dominates frontier point %d", trial, a.Index, b.Index)
				}
			}
		}
		for _, r := range results {
			if !r.Feasible {
				if inFront[r.Index] {
					t.Fatalf("trial %d: infeasible point %d on frontier", trial, r.Index)
				}
				continue
			}
			if inFront[r.Index] {
				continue
			}
			dominated := false
			for _, f := range front {
				if dominates(score(f), score(r)) {
					dominated = true
					break
				}
			}
			if !dominated {
				t.Fatalf("trial %d: off-frontier point %d not dominated by any frontier point", trial, r.Index)
			}
		}
	}
}

// TestWinnersPairing checks win probabilities on the MC spec: paired
// replicas mean the per-system win counts partition the groups.
func TestWinnersPairing(t *testing.T) {
	results, err := Run(context.Background(), mcSpec(16), Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := Winners(results, Objective{Metric: "tc_g"})
	if err != nil {
		t.Fatal(err)
	}
	if w.Groups != 16 {
		t.Fatalf("got %d groups, want 16 (one per replica)", w.Groups)
	}
	total := w.Ties
	for _, n := range w.Wins {
		total += n
	}
	if total != w.Groups {
		t.Errorf("wins+ties = %d, want %d", total, w.Groups)
	}
	var psum float64
	for _, p := range w.Probability {
		if p < 0 || p > 1 {
			t.Errorf("probability %v out of range", p)
		}
		psum += p
	}
	if w.Ties == 0 && math.Abs(psum-1) > 1e-12 {
		t.Errorf("probabilities sum to %v, want 1", psum)
	}
}

// TestSensitivityRanks checks the analysis surfaces the axes that
// actually vary, and that grid intensity correlates positively with TC.
func TestSensitivityRanks(t *testing.T) {
	results, err := Run(context.Background(), testSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sens, err := Sensitivity(results, "tc_g")
	if err != nil {
		t.Fatal(err)
	}
	axes := map[string]AxisSensitivity{}
	for _, s := range sens {
		axes[s.Axis] = s
	}
	for _, want := range []string{"system", "grid", "lifetime_months"} {
		if _, ok := axes[want]; !ok {
			t.Errorf("axis %s missing from sensitivity (got %v)", want, axes)
		}
	}
	if g := axes["grid"]; g.Corr <= 0 {
		t.Errorf("grid intensity vs TC correlation %v, want positive", g.Corr)
	}
	if _, ok := axes["workload"]; ok {
		t.Error("fixed workload axis should be omitted")
	}
}

// TestSpecHashStability: a spec and its fully spelled-out normalization
// share a hash; changing the seed changes it.
func TestSpecHashStability(t *testing.T) {
	short := &Spec{Axes: Axes{Workload: []string{"huff"}}}
	long := &Spec{
		UseGrid: "US",
		Axes: Axes{
			System:         []string{"all-Si", "M3D IGZO/CNFET/Si"},
			Workload:       []string{"huff"},
			Grid:           &GridAxis{Names: []string{"US"}},
			LifetimeMonths: &NumericAxis{Values: []float64{24}},
		},
		Objectives: []Objective{{Metric: "exec_time_s"}, {Metric: "tc_g"}},
	}
	h1, err := short.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := long.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("shorthand and spelled-out specs hash differently:\n%s\n%s", h1, h2)
	}
	seeded := *short
	seeded.Seed = 1
	h3, err := seeded.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Error("seed change did not change the hash")
	}
}

// TestSpecHashAllocs pins that normalizing a spec resolves its system
// names without building the designs, which costs ~3.4k allocations for
// all-Si and M3D together.
func TestSpecHashAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector")
	}
	spec := &Spec{Axes: Axes{System: []string{"si", "m3d"}, Workload: []string{"huff"}}}
	if _, err := spec.Hash(); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() { _, _ = spec.Hash() }); got > 16 {
		t.Errorf("Spec.Hash on a two-system spec: %.0f allocations, budget 16", got)
	}
}

// TestSpecValidation exercises the rejection paths.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"unknown field", `{"axes": {"sistem": ["si"]}}`, "unknown field"},
		{"unknown system", `{"axes": {"system": ["cmos"]}}`, "unknown system"},
		{"unknown workload", `{"axes": {"workload": ["nope"]}}`, "unknown workload"},
		{"two forms", `{"axes": {"clock_mhz": {"values": [100], "linspace": {"lo": 1, "hi": 2, "n": 2}}}}`, "exactly one"},
		{"bad dist", `{"axes": {"ci_use_scale": {"dist": {"kind": "gaussian"}}}}`, "unknown distribution"},
		{"grid dist", `{"axes": {"grid": {"intensity": {"dist": {"kind": "uniform", "lo": 1, "hi": 2}}}}}`, "cannot be a distribution"},
		{"bad metric", `{"axes": {}, "objectives": [{"metric": "speed"}]}`, "unknown objective metric"},
		{"negative clock", `{"axes": {"clock_mhz": {"values": [-5]}}}`, "must be positive"},
		{"bad m3d yield", `{"axes": {"m3d_yield": {"values": [1.5]}}}`, "in (0, 1]"},
		{"NaN logspace level", `{"axes": {"clock_mhz": {"logspace": {"lo": 1e-300, "hi": 1e300, "n": 2}}}}`, "not finite"},
		{"NaN triangular draws", `{"axes": {"ci_use_scale": {"dist": {"kind": "triangular", "lo": -1e308, "mode": 1e308, "hi": 1e308}}}}`, "too wide"},
		{"infinite loguniform draws", `{"axes": {"ci_use_scale": {"dist": {"kind": "loguniform", "lo": 1e-300, "hi": 1e300}}}}`, "too wide"},
	}
	for _, c := range cases {
		_, err := ParseSpec(strings.NewReader(c.json))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.want)
		}
	}
}

// Oversize specs of a few hundred bytes each. The first asks for 1e10
// points; the second's five 10,000-level axes overflow int.
const (
	hugeSpec = `{"name": "huge", "axes": {
  "clock_mhz": {"linspace": {"lo": 100, "hi": 500, "n": 100000}},
  "lifetime_months": {"linspace": {"lo": 1, "hi": 60, "n": 100000}}}}`
	overflowSpec = `{"name": "overflow", "axes": {
  "clock_mhz": {"linspace": {"lo": 100, "hi": 500, "n": 10000}},
  "lifetime_months": {"linspace": {"lo": 1, "hi": 60, "n": 10000}},
  "yield_d0": {"linspace": {"lo": 0, "hi": 1, "n": 10000}},
  "m3d_embodied_scale": {"linspace": {"lo": 0.5, "hi": 2, "n": 10000}},
  "ci_use_scale": {"linspace": {"lo": 0.5, "hi": 2, "n": 10000}}}}`
)

// TestOversizeSpecs pins the plan-size ceiling: a spec whose point count
// passes MaxPlanPoints fails ParseSpec, Validate and Expand with an
// error, before any level list or point is built, where it once ran
// Expand out of memory or panicked in make. The last case is a single
// 1e9-level axis, which Validate once built (8 GB) before checking.
func TestOversizeSpecs(t *testing.T) {
	for _, js := range []string{
		hugeSpec,
		overflowSpec,
		`{"axes": {"clock_mhz": {"linspace": {"lo": 100, "hi": 500, "n": 1000000000}}}}`,
	} {
		var spec Spec
		if err := json.Unmarshal([]byte(js), &spec); err != nil {
			t.Fatal(err)
		}
		const want = "more than 1000000 points"
		if _, err := spec.PointCount(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("PointCount: got %v, want %q", err, want)
		}
		if _, err := Expand(&spec); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Expand: got %v, want %q", err, want)
		}
		if _, err := ParseSpec(strings.NewReader(js)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseSpec: got %v, want %q", err, want)
		}
	}
}

// FuzzSpecExpand feeds arbitrary bytes to ParseSpec and Expand: neither
// panics, a parsed spec's point count is within MaxPlanPoints and is the
// length of its plan, expanding the spec twice gives equal plans, and
// the plan's normalized spec hashes to the plan's Hash (normalizing is
// idempotent, which Expand relies on to hash without normalizing twice).
func FuzzSpecExpand(f *testing.F) {
	smoke, err := os.ReadFile(filepath.Join("testdata", "smoke.json"))
	if err != nil {
		f.Fatal(err)
	}
	mc, err := json.Marshal(mcSpec(3))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{smoke, mc, []byte(`{"axes": {}}`), []byte(hugeSpec), []byte(overflowSpec)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		n, err := spec.PointCount()
		if err != nil || n > MaxPlanPoints {
			t.Fatalf("parsed spec counts %d points (%v), ceiling %d", n, err, MaxPlanPoints)
		}
		plan, err := Expand(spec)
		if err != nil {
			return
		}
		if len(plan.Points) != n {
			t.Fatalf("plan has %d points, PointCount %d", len(plan.Points), n)
		}
		again, err := Expand(spec)
		if err != nil {
			t.Fatalf("second Expand: %v", err)
		}
		if !reflect.DeepEqual(plan, again) {
			t.Fatal("expanding the same spec twice gave different plans")
		}
		if h, err := plan.Spec.Hash(); err != nil || h != plan.Hash {
			t.Fatalf("normalized spec hashes to %q (%v), plan hash %q", h, err, plan.Hash)
		}
	})
}

// TestInfeasibleClock: an absurd clock fails timing closure and comes
// back as an infeasible datum, not an error.
func TestInfeasibleClock(t *testing.T) {
	spec := &Spec{
		Axes: Axes{
			System:   []string{"si"},
			Workload: []string{"huff"},
			ClockMHz: &NumericAxis{Values: []float64{1e6}},
		},
	}
	results, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Feasible || results[0].Error == "" {
		t.Fatalf("1 THz point came back feasible: %+v", results[0])
	}
}
