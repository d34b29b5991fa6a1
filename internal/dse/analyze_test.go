package dse

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
)

// groupKeyString is the string key Winners grouped on before
// winnerKey: the coordinate without the system, floats as %g.
func groupKeyString(r *Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|%s|%g|%g|%g|%d", r.Workload, r.Grid, r.ClockMHz, r.LifetimeMonths, r.CIUseScale, r.Replica)
	for _, p := range []*float64{r.YieldD0, r.M3DYield, r.M3DEmbodiedScale} {
		if p == nil {
			sb.WriteString("|-")
		} else {
			fmt.Fprintf(&sb, "|%g", *p)
		}
	}
	return sb.String()
}

// TestWinnerKeyMatchesStringKey pins Winners' struct key to the string
// key it replaced: over seeded result sets drawn from small pools, so
// that coordinates collide, two results share a winnerKey exactly when
// they share a string key, and Winners reports the summary the string
// grouping gives. The pools hold ties, NaNs of several payloads, −0
// beside 0, infeasible points and absent optional axes.
func TestWinnerKeyMatchesStringKey(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nans := []float64{math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000000)}
	floats := append([]float64{0, negZero, 1, 0.5, 24, math.Inf(1), math.Inf(-1)}, nans...)
	metrics := []float64{0, negZero, 1, 1, 2, 2.5, nans[0]}
	systems := []string{"all-Si", "M3D IGZO/CNFET/Si", "other"}
	objectives := []Objective{{Metric: "tc_g"}, {Metric: "tc_g", Maximize: true}, {Metric: "yield"}, {Metric: "dies_per_wafer"}}
	rng := rand.New(rand.NewPCG(26, 3))
	pick := func(vs []float64) float64 { return vs[rng.IntN(len(vs))] }
	opt := func() *float64 {
		if rng.IntN(3) == 0 {
			return nil
		}
		v := pick(floats)
		return &v
	}
	for set := 0; set < 2000; set++ {
		results := make([]Result, 1+rng.IntN(60))
		for i := range results {
			r := &results[i]
			*r = Result{
				Index:            i,
				Replica:          rng.IntN(3),
				System:           systems[rng.IntN(len(systems))],
				Workload:         []string{"huff", "crc32"}[rng.IntN(2)],
				Grid:             []string{"US", "Coal"}[rng.IntN(2)],
				ClockMHz:         pick(floats),
				LifetimeMonths:   pick(floats),
				CIUseScale:       pick(floats),
				YieldD0:          opt(),
				M3DYield:         opt(),
				M3DEmbodiedScale: opt(),
				Feasible:         rng.IntN(5) != 0,
				TCG:              pick(metrics),
				Yield:            pick(metrics),
				DiesPerWafer:     rng.IntN(3),
			}
		}
		keys := make([]winnerKey, len(results))
		strs := make([]string, len(results))
		for i := range results {
			keys[i], strs[i] = newWinnerKey(&results[i]), groupKeyString(&results[i])
		}
		for i := range results {
			for j := range results {
				if (keys[i] == keys[j]) != (strs[i] == strs[j]) {
					t.Fatalf("set %d: results %d and %d: struct keys equal %v, string keys %q and %q",
						set, i, j, keys[i] == keys[j], strs[i], strs[j])
				}
			}
		}
		obj := objectives[rng.IntN(len(objectives))]
		got, gerr := Winners(results, obj)
		want, werr := winnersByString(results, obj)
		if !reflect.DeepEqual(got, want) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("set %d, %+v: Winners = %+v, %v; string grouping gives %+v, %v", set, obj, got, gerr, want, werr)
		}
	}
}

// winnersByString is Winners grouping on groupKeyString, the reference
// TestWinnerKeyMatchesStringKey holds it to.
func winnersByString(results []Result, obj Objective) (*WinnerSummary, error) {
	groups := map[string][]*Result{}
	var order []string
	for i := range results {
		k := groupKeyString(&results[i])
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], &results[i])
	}
	w := &WinnerSummary{
		Metric: obj.Metric, Maximize: obj.Maximize,
		Wins: map[string]int{}, Probability: map[string]float64{},
	}
	for _, k := range order {
		var best *Result
		var bestV float64
		tie := false
		for _, r := range groups[k] {
			if !r.Feasible {
				continue
			}
			v, _ := r.Metric(obj.Metric)
			if obj.Maximize {
				v = -v
			}
			switch {
			case best == nil || v < bestV:
				best, bestV, tie = r, v, false
			case v == bestV:
				tie = true
			}
		}
		if best == nil {
			continue
		}
		w.Groups++
		if tie {
			w.Ties++
			continue
		}
		w.Wins[best.System]++
	}
	if w.Groups == 0 {
		return nil, fmt.Errorf("dse: no feasible results")
	}
	for sys, n := range w.Wins {
		w.Probability[sys] = float64(n) / float64(w.Groups)
	}
	return w, nil
}
