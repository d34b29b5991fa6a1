package dse

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// axisValues enumerates the axes a Result can vary over, with a label
// per level and (for numeric axes) the raw value for correlation.
var axisValues = []struct {
	name    string
	label   func(*Result) string
	numeric func(*Result) (float64, bool)
}{
	{"system", func(r *Result) string { return r.System }, nil},
	{"workload", func(r *Result) string { return r.Workload }, nil},
	{"grid", func(r *Result) string { return r.Grid },
		func(r *Result) (float64, bool) { return r.GridGPerKWh, true }},
	{"clock_mhz", func(r *Result) string { return fmt.Sprintf("%g", r.ClockMHz) },
		func(r *Result) (float64, bool) { return r.ClockMHz, true }},
	{"lifetime_months", func(r *Result) string { return fmt.Sprintf("%g", r.LifetimeMonths) },
		func(r *Result) (float64, bool) { return r.LifetimeMonths, true }},
	{"ci_use_scale", func(r *Result) string { return fmt.Sprintf("%g", r.CIUseScale) },
		func(r *Result) (float64, bool) { return r.CIUseScale, true }},
	{"yield_d0", labelPtr(func(r *Result) *float64 { return r.YieldD0 }),
		numPtr(func(r *Result) *float64 { return r.YieldD0 })},
	{"m3d_yield", labelPtr(func(r *Result) *float64 { return r.M3DYield }),
		numPtr(func(r *Result) *float64 { return r.M3DYield })},
	{"m3d_embodied_scale", labelPtr(func(r *Result) *float64 { return r.M3DEmbodiedScale }),
		numPtr(func(r *Result) *float64 { return r.M3DEmbodiedScale })},
}

func labelPtr(get func(*Result) *float64) func(*Result) string {
	return func(r *Result) string {
		if p := get(r); p != nil {
			return fmt.Sprintf("%g", *p)
		}
		return "-"
	}
}

func numPtr(get func(*Result) *float64) func(*Result) (float64, bool) {
	return func(r *Result) (float64, bool) {
		if p := get(r); p != nil {
			return *p, true
		}
		return 0, false
	}
}

// AxisSensitivity summarizes how much one axis moves a metric.
type AxisSensitivity struct {
	// Axis names the swept axis.
	Axis string
	// Levels is the number of distinct levels seen.
	Levels int
	// Spread is max−min of the per-level mean metric, and SpreadRel the
	// same relative to the grand mean. Zero when the axis has more than
	// maxLevelTable levels (Monte Carlo axes) — use Corr there instead.
	Spread    float64
	SpreadRel float64
	// Best and Worst are the level labels with the lowest and highest
	// mean metric (empty when Spread is not computed).
	Best, Worst string
	// Corr is the Pearson correlation between the axis value and the
	// metric (numeric axes only; 0 for categorical axes).
	Corr float64
}

// maxLevelTable caps per-level mean tables; axes with more levels are
// Monte Carlo draws, where level means are single observations.
const maxLevelTable = 16

// Sensitivity ranks the swept axes by their influence on one metric,
// over the feasible results. Fixed axes (one level) are omitted. Axes
// with few levels get a per-level mean contrast (the Fig. 6b view);
// densely sampled axes get a Pearson correlation instead.
func Sensitivity(results []Result, metric string) ([]AxisSensitivity, error) {
	if !ValidMetric(metric) {
		return nil, fmt.Errorf("dse: unknown metric %q", metric)
	}
	var feasible []*Result
	var grand float64
	for i := range results {
		if results[i].Feasible {
			feasible = append(feasible, &results[i])
			v, _ := results[i].Metric(metric)
			grand += v
		}
	}
	if len(feasible) == 0 {
		return nil, fmt.Errorf("dse: no feasible results")
	}
	grand /= float64(len(feasible))

	var out []AxisSensitivity
	for _, ax := range axisValues {
		levels := map[string][]float64{}
		var order []string
		for _, r := range feasible {
			l := ax.label(r)
			if _, seen := levels[l]; !seen {
				order = append(order, l)
			}
			v, _ := r.Metric(metric)
			levels[l] = append(levels[l], v)
		}
		if len(levels) < 2 {
			continue
		}
		s := AxisSensitivity{Axis: ax.name, Levels: len(levels)}
		if len(levels) <= maxLevelTable {
			var lo, hi float64
			for i, l := range order {
				var m float64
				for _, v := range levels[l] {
					m += v
				}
				m /= float64(len(levels[l]))
				if i == 0 || m < lo {
					lo, s.Best = m, l
				}
				if i == 0 || m > hi {
					hi, s.Worst = m, l
				}
			}
			s.Spread = hi - lo
			if grand != 0 {
				s.SpreadRel = s.Spread / math.Abs(grand)
			}
		}
		if ax.numeric != nil {
			s.Corr = pearson(feasible, ax.numeric, metric)
		}
		out = append(out, s)
	}
	// Most influential first: by relative spread, then |corr|.
	sort.SliceStable(out, func(a, b int) bool {
		sa, sb := out[a].SpreadRel, out[b].SpreadRel
		if sa != sb {
			return sa > sb
		}
		return math.Abs(out[a].Corr) > math.Abs(out[b].Corr)
	})
	return out, nil
}

// pearson computes the correlation between an axis value and a metric
// over the results where the axis is set.
func pearson(results []*Result, value func(*Result) (float64, bool), metric string) float64 {
	var xs, ys []float64
	for _, r := range results {
		x, ok := value(r)
		if !ok {
			continue
		}
		y, _ := r.Metric(metric)
		xs = append(xs, x)
		ys = append(ys, y)
	}
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// FormatSensitivity renders the sensitivity table.
func FormatSensitivity(sens []AxisSensitivity, metric string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Sensitivity of %s\n", metric)
	for _, s := range sens {
		if s.Best != "" {
			fmt.Fprintf(&sb, "  %-20s %3d levels  spread %.4g (%.1f%%)  best %s  worst %s",
				s.Axis, s.Levels, s.Spread, 100*s.SpreadRel, s.Best, s.Worst)
		} else {
			fmt.Fprintf(&sb, "  %-20s %3d levels  sampled", s.Axis, s.Levels)
		}
		if s.Corr != 0 {
			fmt.Fprintf(&sb, "  corr %+.2f", s.Corr)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// WinnerSummary aggregates, per system, how often it wins a metric
// against the other systems at the same coordinate — the Monte Carlo
// win-probability of tcdp.MonteCarlo generalized to any sweep.
type WinnerSummary struct {
	// Metric and Maximize define the contest.
	Metric   string
	Maximize bool
	// Groups is the number of coordinates compared; Ties counts groups
	// with no strict winner.
	Groups, Ties int
	// Wins counts won groups per system; Probability is Wins/Groups.
	Wins        map[string]int
	Probability map[string]float64
}

// Winners pairs results across the system axis (same workload, grid,
// clock, lifetime, replica, …) and counts which system wins each
// coordinate on the objective. An infeasible system loses to any
// feasible one; coordinates with no feasible system are skipped.
func Winners(results []Result, obj Objective) (*WinnerSummary, error) {
	if !ValidMetric(obj.Metric) {
		return nil, fmt.Errorf("dse: unknown metric %q", obj.Metric)
	}
	slot := map[winnerKey]int{}
	var groups [][]*Result // in order of first occurrence
	for i := range results {
		k := newWinnerKey(&results[i])
		g, seen := slot[k]
		if !seen {
			g = len(groups)
			slot[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], &results[i])
	}
	w := &WinnerSummary{
		Metric: obj.Metric, Maximize: obj.Maximize,
		Wins: map[string]int{}, Probability: map[string]float64{},
	}
	for _, group := range groups {
		var best *Result
		var bestV float64
		tie := false
		for _, r := range group {
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
			continue // nothing feasible at this coordinate
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

// winnerKey is a result's coordinate with the system axis erased:
// results sharing a key are paired observations of different systems.
// Floats key on their bits with every NaN as one, so two values group
// exactly when %g prints them alike (0 and -0 apart, any NaNs together).
type winnerKey struct {
	workload, grid                 string
	clock, lifetime, ciUse         uint64
	replica                        int
	yieldD0, m3dYield, m3dEmbodied optBits
}

// optBits keys an optional axis: absent, or present with its bits.
type optBits struct {
	set  bool
	bits uint64
}

func newWinnerKey(r *Result) winnerKey {
	opt := func(p *float64) optBits {
		if p == nil {
			return optBits{}
		}
		return optBits{true, keyBits(*p)}
	}
	return winnerKey{
		workload: r.Workload, grid: r.Grid,
		clock: keyBits(r.ClockMHz), lifetime: keyBits(r.LifetimeMonths), ciUse: keyBits(r.CIUseScale),
		replica: r.Replica,
		yieldD0: opt(r.YieldD0), m3dYield: opt(r.M3DYield), m3dEmbodied: opt(r.M3DEmbodiedScale),
	}
}

// keyBits is v's bits, with every NaN mapped to one value.
func keyBits(v float64) uint64 {
	if math.IsNaN(v) {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(v)
}

// FormatWinners renders the win-probability summary.
func FormatWinners(w *WinnerSummary) string {
	var sb strings.Builder
	dir := "min"
	if w.Maximize {
		dir = "max"
	}
	fmt.Fprintf(&sb, "Winner on %s(%s) over %d coordinates", w.Metric, dir, w.Groups)
	if w.Ties > 0 {
		fmt.Fprintf(&sb, " (%d ties)", w.Ties)
	}
	sb.WriteByte('\n')
	systems := make([]string, 0, len(w.Wins))
	for sys := range w.Wins {
		systems = append(systems, sys)
	}
	sort.Slice(systems, func(a, b int) bool {
		if w.Wins[systems[a]] != w.Wins[systems[b]] {
			return w.Wins[systems[a]] > w.Wins[systems[b]]
		}
		return systems[a] < systems[b]
	})
	for _, sys := range systems {
		fmt.Fprintf(&sb, "  %-24s %5d wins  P(win) = %.3f\n", sys, w.Wins[sys], w.Probability[sys])
	}
	return sb.String()
}
