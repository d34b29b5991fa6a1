package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

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
// The memoized path assembles results from the same pure stage outputs
// as the direct path, so results — and bytes encoded from them — are
// identical. Keys identify bundled designs by name (every construction
// site goes through SystemByName); callers evaluating hand-modified
// SystemDesigns beyond the Clock override must not share a Memo across
// them.
//
// A Memo is safe for concurrent use and unbounded: it grows by one entry
// per distinct stage key and never evicts. That makes its lifetime the
// caller's key domain. A sweep, whose spec axes (clock, custom
// intensities) make keys unbounded, gets a memo for one run. A memo may
// live for a whole process only when every caller evaluates bundled
// designs at their own clock over a bounded key domain — the daemon's
// validated requests reach at most 8 workloads, 2 designs and the named
// grids, so its process-lifetime memo holds at most 22 entries.
type Memo struct {
	entries [numMemoStages]sync.Map // stage key -> *memoEntry
	hits    [numMemoStages]atomic.Int64
	misses  [numMemoStages]atomic.Int64
}

// NewMemo returns an empty stage memo.
func NewMemo() *Memo { return &Memo{} }

// EvaluateContext is core.EvaluateContext through the memo: stages whose
// keyed inputs were already evaluated are replayed instead of re-run.
func (m *Memo) EvaluateContext(ctx context.Context, sys SystemDesign, w embench.Workload, grid carbon.Grid) (*PPAtC, error) {
	return evaluateWithMemo(ctx, m, sys, w, grid)
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

// memoEntry holds one stage evaluation. The mutex doubles as
// single-flight: concurrent misses of the same key serialize, and all
// but the first replay the winner's result.
type memoEntry struct {
	mu   sync.Mutex
	done bool
	val  any
	err  error
}

// memoDo returns the memoized value for (stage, key), running fn on the
// first call. With a nil memo it degenerates to fn(). Context
// cancellations are returned but never cached — a cancelled caller must
// not poison the key for later evaluations.
func memoDo(m *Memo, stage int, key string, fn func() (any, error)) (any, error) {
	if m == nil {
		return fn()
	}
	v, _ := m.entries[stage].LoadOrStore(key, &memoEntry{})
	e := v.(*memoEntry)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		m.hits[stage].Add(1)
		return e.val, e.err
	}
	val, err := fn()
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return val, err
	}
	e.val, e.err, e.done = val, err, true
	m.misses[stage].Add(1)
	return val, err
}

// memoEmbench runs (or replays) Step 4: the ISA simulation. Key: the
// workload name (the cycle budget is fixed).
func memoEmbench(ctx context.Context, m *Memo, w embench.Workload) (embench.Result, error) {
	v, err := memoDo(m, memoStageEmbench, w.Name, func() (any, error) {
		_, sp := obs.StartSpan(ctx, StageEmbench)
		run, err := embench.Run(w, 1<<34)
		sp.End()
		if err != nil {
			return embench.Result{}, err
		}
		sp.SetFloat("cycles", float64(run.Cycles))
		return run, nil
	})
	if err != nil {
		return embench.Result{}, err
	}
	return v.(embench.Result), nil
}

// memoEDRAM runs (or replays) Step 2: the eDRAM macro build. Key: the
// design name (cell, array and periphery are functions of the design;
// the clock-dependent timing check stays outside the memo). The
// returned Memory is shared between evaluations and must be treated as
// read-only — which every consumer already does.
func memoEDRAM(ctx context.Context, m *Memo, sys SystemDesign) (*edram.Memory, error) {
	v, err := memoDo(m, memoStageEDRAM, sys.Name, func() (any, error) {
		_, sp := obs.StartSpan(ctx, StageEDRAM)
		mem, err := edram.Build(sys.Cell, sys.Array, sys.Periphery)
		sp.End()
		if err != nil {
			return (*edram.Memory)(nil), err
		}
		sp.SetFloat("area_mm2", mem.Area.SquareMillimeters())
		return mem, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*edram.Memory), nil
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
