package dse

import (
	"context"
	"fmt"
	"math"
	"sync"

	"ppatc/internal/carbon"
	"ppatc/internal/core"
	"ppatc/internal/embench"
	"ppatc/internal/tcdp"
	"ppatc/internal/units"
)

// evaluator runs plan points. Points sharing a core coordinate (system,
// workload, grid, clock) share one pipeline evaluation through a
// per-sweep cache: the Monte Carlo axes — lifetime, CI_use scale, yield
// and embodied-carbon overrides — are exact post-transformations of the
// PPAtC result (Eqs. 5-8 are linear in 1/yield, CI_use and the embodied
// total), so a 10k-replica uncertainty sweep costs two pipeline runs,
// not ten thousand.
//
// Before the workers start, resolve looks each distinct system and
// workload name up once, and the run fans out the leaf stages of every
// resolved kernel and design, every ISA simulation and eDRAM build of
// the run at once. A tuple then evaluates its resolved design, with only
// its Clock set on its copy, and replays both leaves from the memo. A
// name that does not resolve keeps its error, which every point naming
// it reports.
type evaluator struct {
	// scenario is the paper's usage scenario on the flat use-phase grid,
	// built once; a point with a CI_use scale copies it and swaps in its
	// scale's profile from scaled.
	scenario tcdp.Scenario
	// scaled maps the bits of every CI_use scale other than 1 that
	// resolve has seen to the use-phase profile it scales to, so −0 and
	// +0 stay apart. Read-only once the workers start.
	scaled map[uint64]carbon.Profile
	cache  sync.Map // coreKey -> *coreEntry
	// memo memoizes the individual pipeline stages underneath the tuple
	// cache: two tuples differing only in grid replay embench, the eDRAM
	// macro, synthesis and the floorplan instead of re-running them.
	memo *core.Memo
	// systems and workloads map every name resolve has seen to its
	// design or kernel (or lookup error); designs and kernels list the
	// resolved ones in first-seen order. All four are read-only once the
	// workers start.
	systems   map[string]resolved[core.SystemDesign]
	workloads map[string]resolved[embench.Workload]
	designs   []core.SystemDesign
	kernels   []embench.Workload
}

// resolved is a name lookup's outcome.
type resolved[T any] struct {
	v   T
	err error
}

// coreKey is a point's core coordinate, the tuple-cache key.
type coreKey struct {
	system, workload, grid string
	clock                  float64
}

type coreEntry struct {
	once sync.Once
	res  *core.PPAtC
	err  error
}

func newEvaluator(useGrid carbon.Grid, memo *core.Memo) *evaluator {
	scenario := tcdp.PaperScenario()
	scenario.Profile = carbon.Flat(useGrid)
	return &evaluator{
		scenario:  scenario,
		scaled:    make(map[uint64]carbon.Profile),
		memo:      memo,
		systems:   make(map[string]resolved[core.SystemDesign]),
		workloads: make(map[string]resolved[embench.Workload]),
	}
}

// resolve looks up p's system and workload, and scales the use-phase
// profile by p's CI_use scale, unless an earlier point did. Every point
// the evaluator runs must be resolved first.
func (e *evaluator) resolve(p *Point) {
	if p.CIUseScale != 1 {
		if bits := math.Float64bits(p.CIUseScale); e.scaled[bits] == nil {
			e.scaled[bits] = carbon.Scaled(e.scenario.Profile, p.CIUseScale)
		}
	}
	if _, ok := e.systems[p.System]; !ok {
		sys, err := core.SystemByName(p.System)
		e.systems[p.System] = resolved[core.SystemDesign]{sys, err}
		if err == nil {
			e.designs = append(e.designs, sys)
		}
	}
	if _, ok := e.workloads[p.Workload]; !ok {
		w, err := embench.ByName(p.Workload)
		e.workloads[p.Workload] = resolved[embench.Workload]{w, err}
		if err == nil {
			e.kernels = append(e.kernels, w)
		}
	}
}

// coreEval runs (or reuses) the five-stage pipeline for the point's core
// coordinate.
func (e *evaluator) coreEval(ctx context.Context, p *Point) (*core.PPAtC, error) {
	key := coreKey{system: p.System, workload: p.Workload, grid: p.Grid.Name, clock: p.ClockMHz}
	v, ok := e.cache.Load(key)
	if !ok {
		v, _ = e.cache.LoadOrStore(key, &coreEntry{})
	}
	entry := v.(*coreEntry)
	entry.once.Do(func() {
		sys, wl := e.systems[p.System], e.workloads[p.Workload]
		if sys.err != nil {
			entry.err = sys.err
			return
		}
		if wl.err != nil {
			entry.err = wl.err
			return
		}
		design := sys.v
		if p.ClockMHz > 0 {
			design.Clock = units.Megahertz(p.ClockMHz)
		}
		entry.res, entry.err = e.memo.EvaluateContext(ctx, design, wl.v, p.Grid)
	})
	return entry.res, entry.err
}

// evaluate computes one point's Result. Evaluation failures become data
// (Error set, Feasible false for timing misses) rather than aborting the
// sweep: a sweep that straddles the feasibility boundary is the common
// case, not an exception.
func (e *evaluator) evaluate(ctx context.Context, p *Point) Result {
	r := Result{
		Index:            p.Index,
		Replica:          p.Replica,
		System:           p.System,
		Workload:         p.Workload,
		Grid:             p.Grid.Name,
		GridGPerKWh:      p.Grid.Intensity.GramsPerKilowattHour(),
		ClockMHz:         p.ClockMHz,
		LifetimeMonths:   p.LifetimeMonths,
		CIUseScale:       p.CIUseScale,
		YieldD0:          p.YieldD0,
		M3DYield:         p.M3DYield,
		M3DEmbodiedScale: p.M3DEmbodiedScale,
	}
	res, err := e.coreEval(ctx, p)
	if err != nil {
		// Timing-closure misses (and any other evaluation failure) are
		// infeasible sweep points, the way core.ClockSweep treats them.
		r.Error = err.Error()
		return r
	}
	r.Feasible = true
	if r.ClockMHz == 0 {
		r.ClockMHz = res.Clock.Megahertz()
	}
	r.Cycles = res.Cycles
	r.ExecTimeS = res.ExecTime
	r.OperationalPowerMW = res.OperationalPower.Milliwatts()
	r.TotalAreaMM2 = res.TotalArea.SquareMillimeters()
	r.EmbodiedWaferKG = res.EmbodiedPerWafer.Total().Kilograms()
	r.DiesPerWafer = res.DiesPerWafer

	// Yield and embodied-carbon overrides, applied as the exact Eq. 5
	// re-amortization C_emb' = C_emb · Y/Y' (and the Fig. 6b embodied
	// scale), without re-running the pipeline.
	dp := res.DesignPoint()
	y := res.Yield
	if p.YieldD0 != nil {
		y = math.Exp(-*p.YieldD0 * res.TotalArea.SquareCentimeters())
	}
	if p.M3DYield != nil && p.System == core.M3DName {
		y = *p.M3DYield
	}
	if y <= 0 || y > 1 {
		r.Feasible = false
		r.Error = fmt.Sprintf("dse: override yield %g outside (0, 1]", y)
		return r
	}
	emb := dp.Embodied.Grams() * dp.Yield / y
	if p.M3DEmbodiedScale != nil && p.System == core.M3DName {
		emb *= *p.M3DEmbodiedScale
	}
	dp.Embodied = units.GramsCO2e(emb)
	dp.Yield = y
	r.Yield = y
	r.EmbodiedGoodDieG = emb

	scenario := e.scenario
	if p.CIUseScale != 1 {
		scenario.Profile = e.scaled[math.Float64bits(p.CIUseScale)]
	}
	life := units.Months(p.LifetimeMonths)
	tc, err := tcdp.TC(dp, scenario, life)
	if err != nil {
		r.Feasible = false
		r.Error = err.Error()
		return r
	}
	r.TCG = tc.TC().Grams()
	r.TCDPGS = r.TCG * dp.ExecTime
	return r
}
