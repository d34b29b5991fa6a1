package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"ppatc/internal/carbon"
	"ppatc/internal/embench"
	"ppatc/internal/tcdp"
	"ppatc/internal/units"
)

// ClockSweepPoint is one operating point of the carbon-vs-frequency sweep.
type ClockSweepPoint struct {
	// Clock is the target frequency.
	Clock units.Frequency
	// Feasible reports whether both the memory and the core close timing.
	Feasible bool
	// ExecTime is the application execution time (s).
	ExecTime float64
	// Power is the operating power.
	Power units.Power
	// TCDP is the 24-month total-carbon-delay product (gCO2e·s).
	TCDP float64
}

// ClockSweep extends the paper's fixed-500 MHz case study: it sweeps the
// system clock and evaluates tCDP at each feasible point, exposing the
// carbon-optimal operating frequency. Faster clocks shorten execution
// (less delay in the product) but raise power and force upsizing; slower
// clocks waste lifetime leakage and refresh energy against a fixed
// embodied cost. Evaluation reuses one workload run (cycle counts do not
// depend on frequency in this in-order, single-cycle-memory system) and
// one eDRAM build: the sweep evaluates through a memo of its own, keyed
// per clock only where the stage depends on it.
func ClockSweep(sys SystemDesign, w embench.Workload, grid carbon.Grid, life units.Months, freqs []units.Frequency) ([]ClockSweepPoint, error) {
	return NewMemo().ClockSweep(sys, w, grid, life, freqs)
}

// ClockSweep is core.ClockSweep through the memo.
func (m *Memo) ClockSweep(sys SystemDesign, w embench.Workload, grid carbon.Grid, life units.Months, freqs []units.Frequency) ([]ClockSweepPoint, error) {
	if len(freqs) == 0 {
		return nil, errors.New("core: clock sweep needs frequencies")
	}
	out := make([]ClockSweepPoint, 0, len(freqs))
	scenario := tcdp.PaperScenario()
	for _, f := range freqs {
		if f <= 0 {
			return nil, errors.New("core: frequencies must be positive")
		}
		s := sys
		s.Clock = f
		pt := ClockSweepPoint{Clock: f}
		res, err := m.EvaluateContext(context.Background(), s, w, grid)
		if err != nil {
			// Timing-closure failures are sweep data, not errors.
			if strings.Contains(err.Error(), "timing") {
				out = append(out, pt)
				continue
			}
			return nil, err
		}
		pt.Feasible = true
		pt.ExecTime = res.ExecTime
		pt.Power = res.OperationalPower
		dp := res.DesignPoint()
		v, err := tcdp.TCDP(dp, scenario, life)
		if err != nil {
			return nil, err
		}
		pt.TCDP = v
		out = append(out, pt)
	}
	return out, nil
}

// FormatClockSweep renders sweep results side by side for two systems.
func FormatClockSweep(name1 string, a []ClockSweepPoint, name2 string, b []ClockSweepPoint) (string, error) {
	if len(a) != len(b) {
		return "", errors.New("core: sweeps must cover the same frequencies")
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%10s %16s %16s    (tCDP in gCO2e·s, 24-month lifetime)\n", "f (MHz)", name1, name2)
	for i := range a {
		cell := func(p ClockSweepPoint) string {
			if !p.Feasible {
				return "fail"
			}
			return fmt.Sprintf("%.4f", p.TCDP)
		}
		fmt.Fprintf(&sb, "%10.0f %16s %16s\n", a[i].Clock.Megahertz(), cell(a[i]), cell(b[i]))
	}
	return sb.String(), nil
}

// BestClock reports the feasible point with the lowest tCDP.
func BestClock(points []ClockSweepPoint) (ClockSweepPoint, error) {
	best := ClockSweepPoint{}
	found := false
	for _, p := range points {
		if !p.Feasible {
			continue
		}
		if !found || p.TCDP < best.TCDP {
			best = p
			found = true
		}
	}
	if !found {
		return ClockSweepPoint{}, errors.New("core: no feasible sweep point")
	}
	return best, nil
}
