package dse

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"ppatc/internal/carbon"
)

// expandPerPoint is Expand as it decoded each point's coordinate into a
// fresh slice and pointed each override at its own heap value: the
// reference for the odometer and the per-plan slab.
func expandPerPoint(spec *Spec) (*Plan, error) {
	n, err := spec.normalized()
	if err != nil {
		return nil, err
	}
	hash, err := n.Hash()
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

	counts := n.dimCounts()
	total, err := n.PointCount()
	if err != nil {
		return nil, err
	}

	plan := &Plan{Spec: n, Hash: hash, UseGrid: useGrid, Points: make([]Point, 0, total)}
	for i := 0; i < total; i++ {
		rem := i
		coord := make([]int, len(counts))
		for d := len(counts) - 1; d >= 0; d-- {
			coord[d] = rem % counts[d]
			rem /= counts[d]
		}
		replica := coord[9]
		p := Point{
			Index:          i,
			Seed:           pointSeed(n.Seed, i),
			Replica:        replica,
			System:         n.Axes.System[coord[0]],
			Workload:       n.Axes.Workload[coord[1]],
			Grid:           grids[coord[2]],
			LifetimeMonths: 24,
			CIUseScale:     1,
		}
		if v, ok := clock.value(coord[3], replica); ok {
			p.ClockMHz = v
		}
		if v, ok := life.value(coord[4], replica); ok {
			p.LifetimeMonths = v
		}
		if v, ok := d0.value(coord[5], replica); ok {
			p.YieldD0 = &v
		}
		if v, ok := m3dY.value(coord[6], replica); ok {
			p.M3DYield = &v
		}
		if v, ok := m3dEmb.value(coord[7], replica); ok {
			p.M3DEmbodiedScale = &v
		}
		if v, ok := ciUse.value(coord[8], replica); ok {
			p.CIUseScale = v
		}
		plan.Points = append(plan.Points, p)
	}
	return plan, nil
}

// randomSpec draws a small spec in which every numeric axis is absent,
// a value list, a range or a distribution, and the grid axis mixes
// names, custom grids and intensities.
func randomSpec(rng *rand.Rand) *Spec {
	axis := func(lo, hi float64) *NumericAxis {
		switch rng.IntN(5) {
		case 0, 1:
			return nil
		case 2:
			vals := make([]float64, 1+rng.IntN(3))
			for i := range vals {
				vals[i] = lo + (hi-lo)*rng.Float64()
			}
			return &NumericAxis{Values: vals}
		case 3:
			return &NumericAxis{Linspace: &Range{Lo: lo, Hi: hi, N: 1 + rng.IntN(3)}}
		}
		return &NumericAxis{Dist: &DistSpec{Kind: "uniform", Lo: lo, Hi: hi}}
	}
	spec := &Spec{
		Name:    "expand-diff",
		Seed:    rng.Int64N(1000),
		Samples: rng.IntN(4),
		Axes: Axes{
			ClockMHz:         axis(300, 600),
			LifetimeMonths:   axis(12, 36),
			YieldD0:          axis(0, 0.5),
			M3DYield:         axis(0.3, 0.95),
			M3DEmbodiedScale: axis(0.8, 1.2),
			CIUseScale:       axis(0.5, 2),
		},
	}
	if rng.IntN(2) == 0 {
		spec.Axes.System = [][]string{{"si"}, {"m3d"}, {"m3d", "si"}}[rng.IntN(3)]
	}
	if rng.IntN(2) == 0 {
		spec.Axes.Workload = [][]string{{"huff"}, {"crc32", "huff"}}[rng.IntN(2)]
	}
	if rng.IntN(2) == 0 {
		g := &GridAxis{Names: [][]string{nil, {"US"}, {"Coal", "Solar"}}[rng.IntN(3)]}
		if rng.IntN(2) == 0 {
			g.Custom = []CustomGridSpec{{Name: "lab", GPerKWh: 123}}
		}
		if rng.IntN(2) == 0 || len(g.Names)+len(g.Custom) == 0 {
			g.Intensity = &NumericAxis{Logspace: &Range{Lo: 20, Hi: 1000, N: 1 + rng.IntN(3)}}
		}
		spec.Axes.Grid = g
	}
	return spec
}

// overrides lists a point's optional override fields.
func overrides(p *Point) [3]**float64 {
	return [3]**float64{&p.YieldD0, &p.M3DYield, &p.M3DEmbodiedScale}
}

// samePoint reports how p differs from the reference point q, or "".
func samePoint(p, q *Point) string {
	bitsEq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	ptrEq := func(a, b *float64) bool {
		return (a == nil) == (b == nil) && (a == nil || bitsEq(*a, *b))
	}
	switch {
	case p.Index != q.Index, p.Seed != q.Seed, p.Replica != q.Replica:
		return "index, seed or replica"
	case p.System != q.System, p.Workload != q.Workload, p.Grid != q.Grid:
		return "system, workload or grid"
	case !bitsEq(p.ClockMHz, q.ClockMHz), !bitsEq(p.LifetimeMonths, q.LifetimeMonths), !bitsEq(p.CIUseScale, q.CIUseScale):
		return "clock, lifetime or CI_use scale"
	case !ptrEq(p.YieldD0, q.YieldD0):
		return "yield D0"
	case !ptrEq(p.M3DYield, q.M3DYield):
		return "M3D yield"
	case !ptrEq(p.M3DEmbodiedScale, q.M3DEmbodiedScale):
		return "M3D embodied scale"
	}
	return ""
}

// TestExpandMatchesPerPointExpansion pins Expand's odometer and override
// slab to the per-point expansion it replaced, over seeded specs with
// every axis present and absent: the same plan fields, every point
// field equal to the bit, pointers nil in the same places, and no
// pointee shared between two points or two fields — a write through one
// point's pointer changes no other point.
func TestExpandMatchesPerPointExpansion(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 5))
	const trials = 300
	expanded, withOverrides := 0, 0
	for trial := 0; trial < trials; trial++ {
		spec := randomSpec(rng)
		label := fmt.Sprintf("trial %d", trial)
		got, gerr := Expand(spec)
		want, werr := expandPerPoint(spec)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: Expand error %v, reference error %v", label, gerr, werr)
		}
		if gerr != nil {
			continue
		}
		expanded++
		if got.Hash != want.Hash || got.UseGrid != want.UseGrid || !reflect.DeepEqual(got.Spec, want.Spec) {
			t.Fatalf("%s: plan header differs from the reference", label)
		}
		if len(got.Points) != len(want.Points) {
			t.Fatalf("%s: %d points, reference %d", label, len(got.Points), len(want.Points))
		}
		pointees := make(map[*float64]bool)
		for i := range got.Points {
			if d := samePoint(&got.Points[i], &want.Points[i]); d != "" {
				t.Fatalf("%s: point %d differs from the reference in its %s", label, i, d)
			}
			for _, f := range overrides(&got.Points[i]) {
				if p := *f; p != nil {
					if pointees[p] {
						t.Fatalf("%s: point %d shares a pointee", label, i)
					}
					pointees[p] = true
				}
			}
		}
		if len(pointees) == 0 {
			continue
		}
		withOverrides++
		// Write through one pointer: only that field of that point moves.
		i := rng.IntN(len(got.Points))
		for f := range 3 {
			p := *overrides(&got.Points[i])[f]
			if p == nil {
				continue
			}
			old := *p
			*p = -1
			for j := range got.Points {
				q := got.Points[j]
				if j == i {
					*overrides(&q)[f] = *overrides(&want.Points[j])[f]
				}
				if d := samePoint(&q, &want.Points[j]); d != "" {
					t.Fatalf("%s: writing through point %d's pointer changed point %d's %s", label, i, j, d)
				}
			}
			*p = old
		}
	}
	t.Logf("%d of %d specs expanded, %d with overrides", expanded, trials, withOverrides)
	if expanded < trials/2 || withOverrides < trials/4 {
		t.Fatalf("only %d of %d specs expanded, %d with overrides", expanded, trials, withOverrides)
	}
}
