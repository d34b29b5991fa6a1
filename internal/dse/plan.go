package dse

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"ppatc/internal/carbon"
	"ppatc/internal/units"
)

// Point is one evaluation of the plan: a fully resolved coordinate in the
// design space plus a per-point seed.
type Point struct {
	// Index is the point's position in the plan (stable across runs and
	// worker counts; Options.Completed keys on it).
	Index int
	// Seed is the per-point seed derived from the root seed and Index,
	// available to any stochastic evaluation stage.
	Seed uint64
	// Replica is the Monte Carlo replica index (0 when no axis samples).
	Replica int

	// System and Workload are resolved names; Grid the CI_fab supply.
	System   string
	Workload string
	Grid     carbon.Grid
	// ClockMHz is the clock override (0 = the design's own clock).
	ClockMHz float64
	// LifetimeMonths is the tCDP lifetime.
	LifetimeMonths float64
	// CIUseScale scales the use-phase carbon intensity.
	CIUseScale float64
	// YieldD0, M3DYield and M3DEmbodiedScale are optional overrides
	// (nil = the design baseline).
	YieldD0          *float64
	M3DYield         *float64
	M3DEmbodiedScale *float64
}

// Plan is an expanded spec: the ordered point list plus everything the
// engine needs to execute it.
type Plan struct {
	// Spec is the normalized spec the plan was expanded from.
	Spec *Spec
	// Hash identifies the normalized spec (sweep job identity).
	Hash string
	// Points are the evaluations, in deterministic order.
	Points []Point
	// UseGrid supplies CI_use.
	UseGrid carbon.Grid
}

// numLevels is one numeric dimension of the cross product: either fixed
// levels, or one per-replica sampled level.
type numLevels struct {
	present bool
	fixed   []float64 // nil for sampled axes
	sampled []float64 // indexed by replica
}

// value resolves the level at a coordinate; ok is false when the axis is
// absent from the spec.
func (l numLevels) value(coord, replica int) (float64, bool) {
	switch {
	case !l.present:
		return 0, false
	case l.sampled != nil:
		return l.sampled[replica], true
	default:
		return l.fixed[coord], true
	}
}

// expandNum builds the level list of one numeric axis. Distribution axes
// pre-draw one value per replica from a stream seeded by the root seed
// and the axis name, so every point of a replica shares the draw (the
// pairing Winners depends on) and the plan is identical at any worker
// count.
func expandNum(a *NumericAxis, name string, seed int64, samples int) (numLevels, error) {
	if a == nil {
		return numLevels{}, nil
	}
	if a.Dist == nil {
		return numLevels{present: true, fixed: a.values()}, nil
	}
	dist, err := a.Dist.Distribution()
	if err != nil {
		return numLevels{}, err
	}
	rng := rand.New(rand.NewSource(axisSeed(seed, name)))
	vals := make([]float64, samples)
	for i := range vals {
		vals[i] = dist.Sample(rng)
	}
	return numLevels{present: true, sampled: vals}, nil
}

// axisSeed derives a per-axis seed from the root seed and the axis name.
func axisSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return int64(h.Sum64() ^ uint64(seed)*0x9E3779B97F4A7C15)
}

// pointSeed derives the per-point seed from the root seed and the point
// index (a splitmix64 step, so nearby indices decorrelate).
func pointSeed(seed int64, index int) uint64 {
	z := uint64(seed) + uint64(index)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Expand validates and normalizes the spec and expands it into the full
// evaluation plan. Axes are crossed in declaration order — system,
// workload, grid, clock, lifetime, yield D0, M3D yield, M3D embodied
// scale, CI_use scale — with Monte Carlo replicas innermost.
//
// A plan allocates per plan, not per point: the optional overrides
// (YieldD0, M3DYield, M3DEmbodiedScale) point into one slab with a
// distinct slot per point and field, so no two points share a pointee.
func Expand(spec *Spec) (*Plan, error) {
	n, err := spec.normalized()
	if err != nil {
		return nil, err
	}
	hash, err := n.normalizedHash()
	if err != nil {
		return nil, err
	}
	useGrid, err := carbon.GridByName(n.UseGrid)
	if err != nil {
		return nil, err
	}
	grids, err := expandGrids(n.Axes.Grid)
	if err != nil {
		return nil, err
	}

	axes := n.numericAxes()
	levels := make([]numLevels, len(axes))
	for i, a := range axes {
		if levels[i], err = expandNum(a, numericAxisNames[i], n.Seed, n.Samples); err != nil {
			return nil, err
		}
	}
	clock, life, d0, m3dY, m3dEmb, ciUse := levels[0], levels[1], levels[2], levels[3], levels[4], levels[5]

	// Validation rejects every empty axis and caps the count, so each
	// dimension has at least one level and total cannot overflow.
	counts := n.dimCounts()
	total, err := n.PointCount()
	if err != nil {
		return nil, err
	}
	overrides := 0
	for _, l := range [...]numLevels{d0, m3dY, m3dEmb} {
		if l.present {
			overrides++
		}
	}
	slab := make([]float64, total*overrides)
	override := func(v float64) *float64 {
		slab[0] = v
		p := &slab[0]
		slab = slab[1:]
		return p
	}

	plan := &Plan{Spec: n, Hash: hash, UseGrid: useGrid, Points: make([]Point, total)}
	// coord is the flat index decoded into per-axis coordinates,
	// row-major with the replica fastest so paired replicas sit
	// adjacent; it steps as an odometer from point to point.
	var coord [numDims]int
	for i := range plan.Points {
		replica := coord[dimReplica]
		p := &plan.Points[i]
		*p = Point{
			Index:          i,
			Seed:           pointSeed(n.Seed, i),
			Replica:        replica,
			System:         n.Axes.System[coord[dimSystem]],
			Workload:       n.Axes.Workload[coord[dimWorkload]],
			Grid:           grids[coord[dimGrid]],
			LifetimeMonths: 24,
			CIUseScale:     1,
		}
		if v, ok := clock.value(coord[dimClock], replica); ok {
			p.ClockMHz = v
		}
		if v, ok := life.value(coord[dimLifetime], replica); ok {
			p.LifetimeMonths = v
		}
		if v, ok := d0.value(coord[dimYieldD0], replica); ok {
			p.YieldD0 = override(v)
		}
		if v, ok := m3dY.value(coord[dimM3DYield], replica); ok {
			p.M3DYield = override(v)
		}
		if v, ok := m3dEmb.value(coord[dimM3DEmbodied], replica); ok {
			p.M3DEmbodiedScale = override(v)
		}
		if v, ok := ciUse.value(coord[dimCIUse], replica); ok {
			p.CIUseScale = v
		}
		for d := numDims - 1; d >= 0; d-- {
			if coord[d]++; coord[d] < counts[d] {
				break
			}
			coord[d] = 0
		}
	}
	return plan, nil
}

// expandGrids resolves a grid axis into concrete grids: canonical names,
// then custom grids, then raw intensities.
func expandGrids(g *GridAxis) ([]carbon.Grid, error) {
	var out []carbon.Grid
	for _, name := range g.Names {
		grid, err := carbon.GridByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, grid)
	}
	for _, c := range g.Custom {
		out = append(out, carbon.CustomGrid(c.Name, units.GramsPerKilowattHour(c.GPerKWh)))
	}
	if g.Intensity != nil {
		for _, v := range g.Intensity.values() {
			out = append(out, carbon.CustomGrid(fmt.Sprintf("grid-%g", v), units.GramsPerKilowattHour(v)))
		}
	}
	return out, nil
}
