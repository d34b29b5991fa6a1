package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ppatc/internal/carbon"
	"ppatc/internal/edram"
	"ppatc/internal/embench"
	"ppatc/internal/floorplan"
	"ppatc/internal/obs"
	"ppatc/internal/synth"
)

// Memo is a stage-memoized incremental evaluator: it caches each of the
// five pipeline stages keyed on that stage's own input slice, so an
// evaluation re-runs only the stages whose inputs actually changed. A
// mixed-axis sweep that varies the grid's carbon intensity re-runs the
// carbon chain per point but replays embench cycles, the eDRAM macro,
// synthesis and the floorplan from the memo — the stage DAG that
// Stages() and the provenance records already reify:
//
//	embench   ← workload
//	edram     ← design cell/array/periphery (timing checked per clock)
//	synth     ← design core + VT flavour + clock
//	floorplan ← design macro dims + core area
//	carbon    ← design flow/wafer/yield + die + grid CI_fab
//
// Every evaluation runs through a memo; one that starts empty runs every
// stage it needs. Replays return the stored pure stage outputs, so
// results — and bytes encoded from them — do not depend on what the memo
// already held. Keys identify bundled designs by name (every
// construction site goes through SystemByName); callers evaluating
// hand-modified SystemDesigns beyond the Clock override must not share a
// Memo across them.
//
// A Memo is safe for concurrent use and unbounded: it grows by one entry
// per distinct stage key and never evicts. That makes its lifetime the
// caller's key domain. EvaluateContext, Table2Context, SuiteContext and
// ClockSweep get a memo for one call, so the two designs share one ISA
// simulation per workload. The DAG's leaves, embench and edram, share
// no inputs, so FanOutLeaves runs the missing ones concurrently before
// any evaluation replays them: one simulation and two eDRAM builds at
// once for a pair evaluation (Table2Context, EvaluatePairContext, each
// workload of the suite), and every simulation and build of a sweep's
// workloads and designs at once before its workers start. A sweep,
// whose spec axes (clock, custom intensities) make keys unbounded, gets
// a memo for one run. A memo may live for a whole
// process only when every caller evaluates bundled designs at their own
// clock over a bounded key domain — the daemon's validated requests
// reach at most 8 workloads, 2 designs and the named grids, so its
// process-lifetime memo holds at most 22 entries.
type Memo struct {
	entries [numMemoStages]sync.Map // stage key -> *memoEntry
	hits    [numMemoStages]atomic.Int64
	misses  [numMemoStages]atomic.Int64
}

// NewMemo returns an empty stage memo.
func NewMemo() *Memo { return &Memo{} }

// EvaluatePairContext evaluates the two bundled designs, all-Si then
// M3D, on one workload and grid through the memo. The leaf stages the
// pair needs, the workload's ISA simulation and each design's eDRAM
// build, share no inputs, so the ones still missing from the memo run
// concurrently before either evaluation starts; a warm memo starts no
// goroutine. The results equal two EvaluateContext calls on the memo.
func (m *Memo) EvaluatePairContext(ctx context.Context, w embench.Workload, grid carbon.Grid) (si, m3d *PPAtC, err error) {
	return evaluatePair(ctx, m, AllSiSystem(), M3DSystem(), w, grid)
}

// evaluatePair is the one pair evaluation behind EvaluatePairContext
// (and so Table2Context) and the suite: the leaf fan-out, then both
// designs through Memo.EvaluateContext, where every leaf is a memo hit.
// The suite fans out all its workloads' leaves first, so there the
// pair's fan-out finds them in the memo and starts nothing.
// Callers build each design once and pass it in; rebuilding them here
// would repeat their process-flow construction.
func evaluatePair(ctx context.Context, m *Memo, si, m3d SystemDesign, w embench.Workload, grid carbon.Grid) (*PPAtC, *PPAtC, error) {
	if err := m.FanOutLeaves(ctx, []embench.Workload{w}, []SystemDesign{si, m3d}); err != nil {
		return nil, nil, err
	}
	a, err := m.EvaluateContext(ctx, si, w, grid)
	if err != nil {
		return nil, nil, err
	}
	b, err := m.EvaluateContext(ctx, m3d, w, grid)
	if err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// Memo stage indices, in Stages() order.
const (
	memoStageEmbench = iota
	memoStageEDRAM
	memoStageSynth
	memoStageFloorplan
	memoStageCarbon
	numMemoStages
)

// MemoStageStats is one stage's memo traffic: Misses counts the times
// the stage actually ran, Hits the times it was replayed.
type MemoStageStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// Stats reports per-stage memo hit/miss counters, keyed by the Stages()
// names.
func (m *Memo) Stats() map[string]MemoStageStats {
	out := make(map[string]MemoStageStats, numMemoStages)
	for i, name := range Stages() {
		out[name] = MemoStageStats{Hits: m.hits[i].Load(), Misses: m.misses[i].Load()}
	}
	return out
}

// StageRun is one stage execution the memo recorded: which stage ran
// and how long it took.
type StageRun struct {
	Stage    string
	Duration time.Duration
}

// StageRuns returns the memo's record of stage executions, one per
// stored entry (cached errors included), grouped by stage in Stages()
// order. A stage runs only on a miss, so the runs of a stage number
// exactly its Misses in Stats. Entries still running are left out.
func (m *Memo) StageRuns() []StageRun {
	var runs []StageRun
	for i, name := range Stages() {
		m.entries[i].Range(func(_, v any) bool {
			if e := v.(*memoEntry); e.done.Load() {
				runs = append(runs, StageRun{Stage: name, Duration: e.dur})
			}
			return true
		})
	}
	return runs
}

// memoEntry holds one stage evaluation. The mutex doubles as
// single-flight: concurrent misses of the same key serialize, and all
// but the first replay the winner's result. done is written under mu
// but read without it, so memoHas never waits on a running stage; val,
// err and dur are written before done is set, so a reader that sees
// done also sees them.
type memoEntry struct {
	mu   sync.Mutex
	done atomic.Bool
	val  any
	err  error
	// dur is how long the stage ran.
	dur time.Duration
}

// memoHas reports whether (stage, key) already holds a result (or a
// cached error).
func memoHas(m *Memo, stage int, key string) bool {
	v, ok := m.entries[stage].Load(key)
	return ok && v.(*memoEntry).done.Load()
}

// memoDo returns the memoized value for (stage, key), running fn on the
// first call and counting every later call as a replay (a hit). Context
// cancellations are returned but never cached — a cancelled caller must
// not poison the key for later evaluations.
func memoDo(m *Memo, stage int, key string, fn func() (any, error)) (any, error) {
	val, hit, err := memoFill(m, stage, key, fn)
	if hit {
		m.hits[stage].Add(1)
	}
	return val, err
}

// memoFill is memoDo without the hit count: it reports whether the value
// was already held instead of counting it as a replay. The leaf fan-out
// fills the memo through it, so the stats read the same however many
// fan-outs raced to fill a key: one miss per run, one hit per
// evaluation that replays it. This is the one place a stage executes, so
// it is also where the run is timed for StageRuns.
func memoFill(m *Memo, stage int, key string, fn func() (any, error)) (val any, hit bool, err error) {
	v, _ := m.entries[stage].LoadOrStore(key, &memoEntry{})
	e := v.(*memoEntry)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done.Load() {
		return e.val, true, e.err
	}
	start := time.Now()
	val, err = fn()
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return val, false, err
	}
	e.val, e.err, e.dur = val, err, time.Since(start)
	e.done.Store(true)
	m.misses[stage].Add(1)
	return val, false, err
}

// memoEmbench runs (or replays) Step 4: the ISA simulation. Key: the
// workload name (the cycle budget is fixed).
func memoEmbench(ctx context.Context, m *Memo, w embench.Workload) (embench.Result, error) {
	v, err := memoDo(m, memoStageEmbench, w.Name, func() (any, error) { return runEmbench(ctx, w) })
	if err != nil {
		return embench.Result{}, err
	}
	return v.(embench.Result), nil
}

// runEmbench is the embench stage itself, in its own span.
func runEmbench(ctx context.Context, w embench.Workload) (any, error) {
	_, sp := obs.StartSpan(ctx, StageEmbench)
	run, err := embench.Run(w, 1<<34)
	sp.End()
	if err != nil {
		return embench.Result{}, err
	}
	sp.SetFloat("cycles", float64(run.Cycles))
	return run, nil
}

// memoEDRAM runs (or replays) Step 2: the eDRAM macro build. Key: the
// design name (cell, array and periphery are functions of the design;
// the clock-dependent timing check stays outside the memo). The
// returned Memory is shared between evaluations and must be treated as
// read-only — which every consumer already does.
func memoEDRAM(ctx context.Context, m *Memo, sys SystemDesign) (*edram.Memory, error) {
	v, err := memoDo(m, memoStageEDRAM, sys.Name, func() (any, error) { return buildEDRAM(ctx, sys) })
	if err != nil {
		return nil, err
	}
	return v.(*edram.Memory), nil
}

// buildEDRAM is the edram stage itself, in its own span.
func buildEDRAM(ctx context.Context, sys SystemDesign) (any, error) {
	_, sp := obs.StartSpan(ctx, StageEDRAM)
	mem, err := edram.Build(sys.Cell, sys.Array, sys.Periphery)
	sp.End()
	if err != nil {
		return (*edram.Memory)(nil), err
	}
	sp.SetFloat("area_mm2", mem.Area.SquareMillimeters())
	return mem, nil
}

// FanOutLeaves runs the leaf stages of a set of evaluations
// concurrently: the ISA simulation of every workload in ws and the
// eDRAM build of every design in designs. Leaves share no inputs
// (embench ← workload, edram ← design), so they can overlap, and the
// evaluations that follow replay them from the memo. Each leaf still
// missing from the memo runs once, however often its key repeats in ws
// or designs; a leaf the memo already holds starts nothing, so a warm
// memo returns at once without allocating. Names reach only the bundled
// kernels and designs wherever they come from a request or a spec, so
// one fan-out runs at most 8 simulations and 2 eDRAM builds.
//
// A leaf's error stays in the memo (memoFill caches it) for the
// evaluations to replay in their own order, so a failing design reports
// exactly the error a sequential evaluation would. FanOutLeaves itself
// returns only ctx's error, checked before the first leaf starts and
// after the last one ends.
func (m *Memo) FanOutLeaves(ctx context.Context, ws []embench.Workload, designs []SystemDesign) error {
	if !m.missingLeaf(ws, designs) {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	m.runLeaves(ctx, ws, designs)
	return ctx.Err()
}

// missingLeaf reports whether any leaf of ws and designs is still
// missing from the memo.
func (m *Memo) missingLeaf(ws []embench.Workload, designs []SystemDesign) bool {
	for i := range ws {
		if !memoHas(m, memoStageEmbench, ws[i].Name) {
			return true
		}
	}
	for i := range designs {
		if !memoHas(m, memoStageEDRAM, designs[i].Name) {
			return true
		}
	}
	return false
}

// leaf is one leaf stage of a fan-out: the simulation of w (stage
// memoStageEmbench) or the eDRAM build of sys.
type leaf struct {
	stage int
	key   string
	w     embench.Workload
	sys   SystemDesign
}

// runLeaves runs the missing leaves, one per distinct key, under one
// "leaves" span: all but the last on goroutines of their own, the last
// on the caller's. It returns after every leaf has finished. It is
// split from FanOutLeaves so that the warm path never pays for the
// leaf list, the closures and the heap copies of the designs that the
// goroutines need.
func (m *Memo) runLeaves(ctx context.Context, ws []embench.Workload, designs []SystemDesign) {
	todo := make([]leaf, 0, len(ws)+len(designs))
	add := func(l leaf) {
		if memoHas(m, l.stage, l.key) {
			return
		}
		for i := range todo {
			if todo[i].stage == l.stage && todo[i].key == l.key {
				return
			}
		}
		todo = append(todo, l)
	}
	for _, w := range ws {
		add(leaf{stage: memoStageEmbench, key: w.Name, w: w})
	}
	for _, sys := range designs {
		add(leaf{stage: memoStageEDRAM, key: sys.Name, sys: sys})
	}
	if len(todo) == 0 {
		return // another caller filled them since missingLeaf looked
	}
	ctx, span := obs.StartSpan(ctx, "leaves")
	defer span.End()
	// A leaf that gets its turn after ctx is done (say, one that waited
	// on another caller's run of the same key) does not start its stage;
	// memoFill caches no cancellation.
	run := func(l *leaf) {
		_, _, _ = memoFill(m, l.stage, l.key, func() (any, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if l.stage == memoStageEmbench {
				return runEmbench(ctx, l.w)
			}
			return buildEDRAM(ctx, l.sys)
		})
	}
	last := len(todo) - 1
	var wg sync.WaitGroup
	wg.Add(last)
	for i := range todo[:last] {
		go func() {
			defer wg.Done()
			run(&todo[i])
		}()
	}
	run(&todo[last])
	wg.Wait()
}

// memoSynth runs (or replays) Step 3: core synthesis and timing
// closure. Key: design name, VT flavour and target clock.
func memoSynth(ctx context.Context, m *Memo, sys SystemDesign) (synth.Result, error) {
	key := fmt.Sprintf("%s|%d|%g", sys.Name, sys.CoreFlavor, sys.Clock.Megahertz())
	v, err := memoDo(m, memoStageSynth, key, func() (any, error) {
		_, sp := obs.StartSpan(ctx, StageSynth)
		cRes, err := synth.Close(sys.Core, stdcellFor(sys.CoreFlavor), sys.Clock)
		sp.End()
		if err != nil {
			return synth.Result{}, err
		}
		sp.SetFloat("dynamic_pj_per_cycle", cRes.DynamicEnergy.Picojoules())
		return cRes, nil
	})
	if err != nil {
		return synth.Result{}, err
	}
	return v.(synth.Result), nil
}

// memoFloorplan runs (or replays) the floorplan composition. Key: the
// design name (macro dimensions and the core area are functions of the
// design).
func memoFloorplan(ctx context.Context, m *Memo, sys SystemDesign, mem *edram.Memory) (floorplan.Chip, error) {
	v, err := memoDo(m, memoStageFloorplan, sys.Name, func() (any, error) {
		_, sp := obs.StartSpan(ctx, StageFloorplan)
		chip, err := floorplan.Compose(mem.Width, mem.Height, mem.Area, sys.Core.Area())
		sp.End()
		if err != nil {
			return floorplan.Chip{}, err
		}
		sp.SetFloat("die_area_mm2", chip.Area.SquareMillimeters())
		return chip, nil
	})
	if err != nil {
		return floorplan.Chip{}, err
	}
	return v.(floorplan.Chip), nil
}

// memoCarbon runs (or replays) the embodied half of Step 5. Key: the
// design name plus the grid's fabrication carbon intensity — custom
// grids with equal intensity share an entry by value, not by name.
func memoCarbon(ctx context.Context, m *Memo, sys SystemDesign, grid carbon.Grid, chip floorplan.Chip) (carbonResult, error) {
	key := fmt.Sprintf("%s|%g", sys.Name, grid.Intensity.GramsPerKilowattHour())
	v, err := memoDo(m, memoStageCarbon, key, func() (any, error) {
		_, sp := obs.StartSpan(ctx, StageCarbon)
		res, err := carbonChain(sys, grid, chip)
		sp.End()
		if err != nil {
			return carbonResult{}, err
		}
		sp.SetFloat("embodied_per_good_die_g", res.perGood.Grams())
		return res, nil
	})
	if err != nil {
		return carbonResult{}, err
	}
	return v.(carbonResult), nil
}
