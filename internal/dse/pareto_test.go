package dse

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// frontierByScan is Frontier as a plain all-pairs scan: every feasible
// point tested against every other, the survivors stably sorted by the
// first objective. It is the reference the skyline must reproduce.
func frontierByScan(results []Result, objectives []Objective) []Result {
	var feasible []Result
	var scores [][]float64
	for i := range results {
		if !results[i].Feasible {
			continue
		}
		row := make([]float64, len(objectives))
		for j, o := range objectives {
			v, _ := results[i].Metric(o.Metric)
			if o.Maximize {
				v = -v
			}
			row[j] = v
		}
		feasible = append(feasible, results[i])
		scores = append(scores, row)
	}
	var keep []int
	for i := range feasible {
		dominated := false
		for k := range feasible {
			if k != i && dominates(scores[k], scores[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			keep = append(keep, i)
		}
	}
	sort.SliceStable(keep, func(a, b int) bool {
		return scores[keep[a]][0] < scores[keep[b]][0]
	})
	front := make([]Result, len(keep))
	for i, k := range keep {
		front[i] = feasible[k]
	}
	return front
}

func frontIndices(front []Result) []int {
	out := make([]int, len(front))
	for i := range front {
		out[i] = front[i].Index
	}
	return out
}

// randomResults draws n results whose metrics come mostly from a small
// value set, so duplicate score vectors and first-objective ties are
// common; nanRate is the chance that a metric is NaN.
func randomResults(rng *rand.Rand, n int, nanRate float64) []Result {
	levels := []float64{0, math.Copysign(0, -1), 1, 2, 3, -1, 0.5, math.Inf(1), math.Inf(-1)}
	draw := func() float64 {
		switch {
		case rng.Float64() < nanRate:
			return math.NaN()
		case rng.IntN(3) == 0:
			return rng.NormFloat64()
		default:
			return levels[rng.IntN(len(levels))]
		}
	}
	results := make([]Result, n)
	for i := range results {
		results[i] = Result{
			Index:        i,
			Feasible:     rng.IntN(8) != 0,
			ExecTimeS:    draw(),
			TCG:          draw(),
			TotalAreaMM2: draw(),
			Yield:        draw(),
			Cycles:       uint64(rng.IntN(4)),
		}
	}
	return results
}

// TestFrontierMatchesScan pins Frontier — the skyline at two objectives,
// the scan otherwise — to the all-pairs reference: the same points in
// the same order, over seeded random result sets with ties, duplicates,
// infinities, infeasible points, Maximize objectives, 1-3 objectives,
// NaN metrics, and the same set in permuted input order.
func TestFrontierMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 3))
	metrics := []string{"exec_time_s", "tc_g", "total_area_mm2", "yield", "cycles"}
	for trial := 0; trial < 3000; trial++ {
		m := 2
		if trial%2 == 1 {
			m = 1 + rng.IntN(3)
		}
		objectives := make([]Objective, m)
		for j := range objectives {
			objectives[j] = Objective{Metric: metrics[rng.IntN(len(metrics))], Maximize: rng.IntN(3) == 0}
		}
		nanRate := 0.0
		if trial%5 == 0 {
			nanRate = 0.05
		}
		n := rng.IntN(60)
		if trial%100 == 0 {
			n = 2000
		}
		results := randomResults(rng, n, nanRate)
		check := func(label string, rs []Result) []int {
			got, err := Frontier(rs, objectives)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			g, w := frontIndices(got), frontIndices(frontierByScan(rs, objectives))
			if !slices.Equal(g, w) {
				t.Fatalf("trial %d (%s, %d points, objectives %+v): Frontier = %v, scan = %v",
					trial, label, len(rs), objectives, g, w)
			}
			return g
		}
		front := check("input order", results)
		rng.Shuffle(len(results), func(a, b int) { results[a], results[b] = results[b], results[a] })
		permuted := check("permuted", results)
		slices.Sort(front)
		slices.Sort(permuted)
		if !slices.Equal(front, permuted) {
			t.Fatalf("trial %d: permuting the input changed the frontier's members: %v vs %v", trial, front, permuted)
		}
	}
}

// skyline2CmpCompare is skyline2 as it sorted with cmp.Compare, the
// reference for its plain-comparison sort.
func skyline2CmpCompare(scores []float64, n int) []int {
	type row struct {
		s0, s1 float64
		k      int
	}
	rows := make([]row, n)
	for k := range rows {
		rows[k] = row{scores[2*k], scores[2*k+1], k}
	}
	slices.SortFunc(rows, func(a, b row) int {
		if c := cmp.Compare(a.s0, b.s0); c != 0 {
			return c
		}
		if c := cmp.Compare(a.s1, b.s1); c != 0 {
			return c
		}
		return a.k - b.k
	})
	var keep []int
	best := 0.0
	for g := 0; g < n; {
		end := g + 1
		for end < n && rows[end].s0 == rows[g].s0 {
			end++
		}
		if least := rows[g].s1; g == 0 || least < best {
			for _, r := range rows[g:end] {
				if r.s1 != least {
					break
				}
				keep = append(keep, r.k)
			}
			best = least
		}
		g = end
	}
	return keep
}

// TestSkylineSortMatchesCmpCompare pins skyline2's plain-comparison sort
// to the cmp.Compare sort it replaced: the same kept rows in the same
// order over seeded NaN-free matrices drawn from a small level set —
// ties on either score, equal rows, ±0 and ±Inf.
func TestSkylineSortMatchesCmpCompare(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 1))
	negZero := math.Copysign(0, -1)
	levels := []float64{0, negZero, 1, -1, 2.5, math.Inf(1), math.Inf(-1), math.MaxFloat64, -5e-324}
	for trial := 0; trial < 5000; trial++ {
		n := rng.IntN(40)
		if trial%250 == 0 {
			n = 3000
		}
		scores := make([]float64, 2*n)
		for i := range scores {
			if rng.IntN(4) == 0 {
				scores[i] = rng.NormFloat64()
			} else {
				scores[i] = levels[rng.IntN(len(levels))]
			}
		}
		for k := 1; k < n; k++ {
			if rng.IntN(6) == 0 { // an equal row
				j := rng.IntN(k)
				scores[2*k], scores[2*k+1] = scores[2*j], scores[2*j+1]
			}
		}
		if got, want := skyline2(scores, n), skyline2CmpCompare(scores, n); !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d rows): skyline2 = %v, cmp.Compare sort = %v", trial, n, got, want)
		}
	}
}

func TestFrontierObjectiveErrors(t *testing.T) {
	if _, err := Frontier(nil, nil); err == nil {
		t.Error("no objectives: want an error")
	}
	if _, err := Frontier(nil, []Objective{{Metric: "exec_time_s"}, {Metric: "bogus"}}); err == nil {
		t.Error("unknown metric: want an error")
	}
}

// BenchmarkFrontier times the default two-objective frontier over a
// sweep-sized result set (38,400 points).
func BenchmarkFrontier(b *testing.B) {
	rng := rand.New(rand.NewPCG(23, 4))
	results := make([]Result, 38_400)
	for i := range results {
		results[i] = Result{Index: i, Feasible: true, ExecTimeS: rng.Float64(), TCG: rng.Float64()}
	}
	objectives := []Objective{{Metric: "exec_time_s"}, {Metric: "tc_g"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Frontier(results, objectives); err != nil {
			b.Fatal(err)
		}
	}
}
