package core

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"ppatc/internal/carbon"
	"ppatc/internal/embench"
	"ppatc/internal/obs"
	"ppatc/internal/tcdp"
	"ppatc/internal/units"
)

// SuiteRow is one workload's comparison across the two designs. The JSON
// tags define the stable machine-readable shape shared by `ppatc suite
// -json` and the daemon's /v1/suite endpoint.
type SuiteRow struct {
	// Workload names the kernel.
	Workload string `json:"workload"`
	// Cycles is the execution length (identical for both designs).
	Cycles uint64 `json:"cycles"`
	// SiMemPJ and M3DMemPJ are the per-cycle memory energies (pJ).
	SiMemPJ  float64 `json:"si_memory_pj_per_cycle"`
	M3DMemPJ float64 `json:"m3d_memory_pj_per_cycle"`
	// SiPowerMW and M3DPowerMW are the operating powers (mW).
	SiPowerMW  float64 `json:"si_power_mw"`
	M3DPowerMW float64 `json:"m3d_power_mw"`
	// TCDPRatio24 is tCDP(all-Si)/tCDP(M3D) at 24 months (>1 → M3D wins).
	TCDPRatio24 float64 `json:"tcdp_ratio_24mo"`
}

// Suite evaluates every bundled workload through the full PPAtC pipeline
// on both designs — the paper's "variety of applications ... well
// represented by the workloads in Embench" framing, made concrete.
func Suite(grid carbon.Grid) ([]SuiteRow, error) {
	return SuiteContext(context.Background(), grid)
}

// SuiteContext is Suite with cancellation before the leaf stages and
// between workloads. It evaluates through a memo that lives for this call
// only, so the suite runs one ISA simulation per workload and one eDRAM
// build, synthesis, floorplan and carbon chain per design; all the leaf
// stages, every workload's simulation and both eDRAM builds, run
// concurrently in one fan-out before the first evaluation. The rows equal
// those built from independent EvaluateContext calls. When the context
// carries an obs trace, the fan-out gets one `leaves` span and each
// workload a span enclosing its evaluations, so the exported trace shows
// where the suite's wall-clock went.
func SuiteContext(ctx context.Context, grid carbon.Grid) ([]SuiteRow, error) {
	return NewMemo().SuiteContext(ctx, grid)
}

// SuiteContext is core.SuiteContext through the memo: one leaf fan-out
// over every workload and both designs, then one pair of evaluations per
// workload, on designs built once per call, replaying every stage whose
// keyed inputs the memo already holds.
func (m *Memo) SuiteContext(ctx context.Context, grid carbon.Grid) ([]SuiteRow, error) {
	scenario := tcdp.PaperScenario()
	siSys, m3dSys := AllSiSystem(), M3DSystem()
	workloads := embench.Workloads()
	var rows []SuiteRow
	sctx, suiteSpan := obs.StartSpan(ctx, "suite")
	defer suiteSpan.End()
	suiteSpan.SetStr("grid", grid.Name)
	if err := m.FanOutLeaves(sctx, workloads, []SystemDesign{siSys, m3dSys}); err != nil {
		return nil, err
	}
	for _, w := range workloads {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		wctx, wSpan := obs.StartSpan(sctx, "workload")
		wSpan.SetStr("name", w.Name)
		si, m3d, err := evaluatePair(wctx, m, siSys, m3dSys, w, grid)
		wSpan.End()
		if err != nil {
			return nil, fmt.Errorf("core: suite %s: %w", w.Name, err)
		}
		row, err := suiteRow(w, si, m3d, scenario)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// suiteRow is one workload's suite row from its two evaluations.
func suiteRow(w embench.Workload, si, m3d *PPAtC, scenario tcdp.Scenario) (SuiteRow, error) {
	ratio, err := tcdp.Ratio(si.DesignPoint(), m3d.DesignPoint(), scenario, units.Months(24))
	if err != nil {
		return SuiteRow{}, err
	}
	return SuiteRow{
		Workload:    w.Name,
		Cycles:      si.Cycles,
		SiMemPJ:     si.MemPerCycle.Picojoules(),
		M3DMemPJ:    m3d.MemPerCycle.Picojoules(),
		SiPowerMW:   si.OperationalPower.Milliwatts(),
		M3DPowerMW:  m3d.OperationalPower.Milliwatts(),
		TCDPRatio24: ratio,
	}, nil
}

// FormatSuite renders the suite comparison table.
func FormatSuite(rows []SuiteRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %12s %10s %10s %10s %10s %12s\n",
		"workload", "cycles", "Si pJ/cyc", "M3D pJ/cyc", "Si mW", "M3D mW", "tCDP ratio")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %12d %10.2f %10.2f %10.3f %10.3f %12.4f\n",
			r.Workload, r.Cycles, r.SiMemPJ, r.M3DMemPJ,
			r.SiPowerMW, r.M3DPowerMW, r.TCDPRatio24)
	}
	return sb.String()
}

// WriteSuiteJSON emits the suite comparison as an indented JSON array —
// the one encoder behind both the CLI's -json flag and /v1/suite.
func WriteSuiteJSON(w io.Writer, rows []SuiteRow) error {
	if rows == nil {
		rows = []SuiteRow{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
