package dse

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Frontier extracts the Pareto-optimal subset of the feasible results
// under the given objectives (each minimized unless Maximize). A point
// is kept when no other feasible point is at least as good on every
// objective and strictly better on one. The frontier is returned sorted
// by the first objective (best first); input order breaks ties, so the
// output is deterministic.
//
// Two objectives, the default, take an O(n log n) sort-and-sweep
// skyline; any other count, and any NaN score, takes the all-pairs scan.
// Both keep exactly the same points in the same order.
func Frontier(results []Result, objectives []Objective) ([]Result, error) {
	if len(objectives) == 0 {
		return nil, fmt.Errorf("dse: frontier needs at least one objective")
	}
	gets := make([]func(*Result) float64, len(objectives))
	for j, o := range objectives {
		get, ok := metricGetter(o.Metric)
		if !ok {
			return nil, fmt.Errorf("dse: unknown objective metric %q", o.Metric)
		}
		gets[j] = get
	}
	// Canonicalize to minimization: score = value, negated for Maximize.
	// feasible[k] is the input index of the k-th feasible result, and its
	// scores are scores[k*m : (k+1)*m].
	m := len(objectives)
	feasible := make([]int, 0, len(results))
	scores := make([]float64, 0, m*len(results))
	hasNaN := false
	for i := range results {
		if !results[i].Feasible {
			continue
		}
		for j, o := range objectives {
			v := gets[j](&results[i])
			if o.Maximize {
				v = -v
			}
			hasNaN = hasNaN || math.IsNaN(v)
			scores = append(scores, v)
		}
		feasible = append(feasible, i)
	}
	var keep []int
	if m == 2 && !hasNaN {
		keep = skyline2(scores, len(feasible))
	} else {
		keep = scanFrontier(scores, m, len(feasible))
	}
	front := make([]Result, len(keep))
	for i, k := range keep {
		front[i] = results[feasible[k]]
	}
	return front, nil
}

// skyline2 returns the non-dominated rows of an n×2 score matrix (no
// NaNs), ordered by the first score and then by row. Rows sorted by
// (score₀, score₁, row) are swept with the least score₁ seen in earlier
// score₀ groups: a row survives when it ties its group's least score₁
// (an equal row dominates nothing) and that least is below every
// earlier group's, since an earlier row with score₁ no greater would
// dominate it.
func skyline2(scores []float64, n int) []int {
	type row struct {
		s0, s1 float64
		k      int
	}
	rows := make([]row, n)
	for k := range rows {
		rows[k] = row{scores[2*k], scores[2*k+1], k}
	}
	// Plain comparisons order the scores as cmp.Compare would without
	// its NaN handling, which a NaN-free matrix never needs: ±0 tie.
	slices.SortFunc(rows, func(a, b row) int {
		switch {
		case a.s0 < b.s0:
			return -1
		case a.s0 > b.s0:
			return 1
		case a.s1 < b.s1:
			return -1
		case a.s1 > b.s1:
			return 1
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

// scanFrontier returns the non-dominated rows of an n×m score matrix by
// testing every row against every other, ordered by the first score and
// then by row.
func scanFrontier(scores []float64, m, n int) []int {
	var keep []int
	for i := 0; i < n; i++ {
		dominated := false
		for k := 0; k < n; k++ {
			if k != i && dominates(scores[k*m:(k+1)*m], scores[i*m:(i+1)*m]) {
				dominated = true
				break
			}
		}
		if !dominated {
			keep = append(keep, i)
		}
	}
	sort.SliceStable(keep, func(a, b int) bool {
		return scores[keep[a]*m] < scores[keep[b]*m]
	})
	return keep
}

// dominates reports whether score vector a Pareto-dominates b (all
// minimized): a is no worse everywhere and strictly better somewhere.
func dominates(a, b []float64) bool {
	better := false
	for j := range a {
		if a[j] > b[j] {
			return false
		}
		if a[j] < b[j] {
			better = true
		}
	}
	return better
}

// FormatFrontier renders the frontier as an aligned text table over the
// objective metrics plus the identifying coordinate.
func FormatFrontier(front []Result, objectives []Objective) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Pareto frontier (%d points)\n", len(front))
	header := []string{"index", "system", "workload", "grid", "clock_mhz"}
	for _, o := range objectives {
		dir := "min"
		if o.Maximize {
			dir = "max"
		}
		header = append(header, fmt.Sprintf("%s(%s)", o.Metric, dir))
	}
	rows := [][]string{header}
	for i := range front {
		r := &front[i]
		row := []string{
			fmt.Sprintf("%d", r.Index), r.System, r.Workload, r.Grid,
			fmt.Sprintf("%.1f", r.ClockMHz),
		}
		for _, o := range objectives {
			v, _ := r.Metric(o.Metric)
			row = append(row, fmt.Sprintf("%.4g", v))
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for j, cell := range row {
			if len(cell) > widths[j] {
				widths[j] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for j, cell := range row {
			if j > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[j], cell)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
