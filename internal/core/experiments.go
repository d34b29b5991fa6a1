package core

import (
	"context"
	"fmt"
	"strings"

	"ppatc/internal/carbon"
	"ppatc/internal/device"
	"ppatc/internal/embench"
	"ppatc/internal/process"
	"ppatc/internal/synth"
	"ppatc/internal/tcdp"
	"ppatc/internal/units"
)

// This file hosts the experiment drivers: one function per table/figure of
// the paper, each returning the rows/series the paper reports as formatted
// text. The cmd/ppatc CLI and the repository's benchmark harness both call
// these, so the reproduction is regenerated identically everywhere.

// Fig2c regenerates Fig. 2c: embodied carbon per wafer for the all-Si and
// M3D processes across the four energy grids, plus the average ratio the
// abstract headlines (1.31×).
func Fig2c() (string, error) {
	designs := []SystemDesign{AllSiSystem(), M3DSystem()}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %18s %18s %8s\n", "grid", "all-Si (kgCO2e)", "M3D (kgCO2e)", "ratio")
	var ratioSum float64
	for _, g := range carbon.Grids() {
		var totals [2]float64
		for i, sys := range designs {
			_, b, err := embodiedPerWafer(sys, g)
			if err != nil {
				return "", err
			}
			totals[i] = b.Total().Kilograms()
		}
		ratio := totals[1] / totals[0]
		ratioSum += ratio
		fmt.Fprintf(&sb, "%-10s %18.0f %18.0f %8.3f\n", g.Name, totals[0], totals[1], ratio)
	}
	fmt.Fprintf(&sb, "%-10s %18s %18s %8.3f  (paper: 1.31)\n", "average", "", "", ratioSum/float64(len(carbon.Grids())))
	return sb.String(), nil
}

// Fig2d regenerates Fig. 2d's view: the Eq. 4 matrix of step categories,
// per-step energies, and per-flow step counts, with the resulting EPA.
func Fig2d() (string, error) {
	flows := []*process.Flow{process.AllSi7nm(), process.M3D7nm()}
	rows, fixed, err := process.Eq4Matrix(process.DefaultEnergyTable(), flows...)
	if err != nil {
		return "", err
	}
	return process.FormatEq4(rows, fixed, flows), nil
}

// Table1 regenerates the quantitative backing of Table I: I_EFF and I_OFF
// of each FET family at the paper's operating voltages.
func Table1() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %16s %16s %s\n", "device", "IEFF (µA/µm)", "IOFF (nA/µm)", "notes")
	rows := []struct {
		p    device.Params
		note string
	}{
		{device.SiNFET(device.RVT), "bottom tier only (high-temp FEOL)"},
		{device.CNFET(), "BEOL-compatible; metallic-CNT leakage floor"},
		{device.IGZO(), "BEOL-compatible; hold leakage anchored to 3e-21 A/µm"},
	}
	for _, r := range rows {
		ioff := r.p.IOFF(device.VDD) * 1e3 // A/m → nA/µm
		if r.p.IOFFSpec > 0 {
			ioff = r.p.IOFFSpec * 1e3
		}
		fmt.Fprintf(&sb, "%-14s %16.2f %16.3g %s\n", r.p.Name, r.p.IEFF(device.VDD), ioff, r.note)
	}
	return sb.String()
}

// Table2 regenerates Table II for a workload on a grid.
func Table2(w embench.Workload, grid carbon.Grid) (*PPAtC, *PPAtC, string, error) {
	return Table2Context(context.Background(), w, grid)
}

// Table2Context is Table2 with cancellation and observability: tracing
// and provenance flags carried by ctx (see internal/obs) flow into both
// evaluations.
//
// Both designs run the same workload, and the paper's Step 4 yields one
// cycle count and access mix per workload, so the two evaluations share
// a memo that lives for this call only. The leaf stages, the one ISA
// simulation and the two eDRAM builds, share no inputs, so they run
// concurrently before either evaluation starts; both evaluations then
// replay them from the memo. A trace shows one "leaves" span holding
// one embench and two edram spans, then the two evaluate spans. The
// results equal two independent EvaluateContext calls; nothing is
// cached across calls.
func Table2Context(ctx context.Context, w embench.Workload, grid carbon.Grid) (*PPAtC, *PPAtC, string, error) {
	si, m3d, err := NewMemo().EvaluatePairContext(ctx, w, grid)
	if err != nil {
		return nil, nil, "", err
	}
	return si, m3d, FormatTable2(si, m3d), nil
}

// Fig4 regenerates Fig. 4: M0 energy per cycle vs. target clock for the
// four VT flavours, marking failed closures the way the paper's curves
// simply end.
func Fig4() (string, error) {
	results, err := synth.PaperSweep(synth.CortexM0())
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %10s %16s %16s %10s\n", "flavor", "f (MHz)", "E/cycle (pJ)", "crit path (ps)", "sizing")
	for _, r := range results {
		if !r.Closed {
			fmt.Fprintf(&sb, "%-8s %10.0f %16s %16s %10s\n",
				r.Flavor, r.TargetClock.Megahertz(), "—", "—", "fail")
			continue
		}
		fmt.Fprintf(&sb, "%-8s %10.0f %16.3f %16.1f %10.2f\n",
			r.Flavor, r.TargetClock.Megahertz(),
			r.EnergyPerCycle().Picojoules(), r.CriticalPath*1e12, r.Sizing)
	}
	return sb.String(), nil
}

// Fig5 regenerates Fig. 5: tC and tCDP per month for both designs, with
// the embodied/operational crossovers and the highlighted tCDP ratios.
func Fig5(si, m3d *PPAtC, months int) (string, error) {
	s := tcdp.PaperScenario()
	a := si.DesignPoint()
	b := m3d.DesignPoint()
	sa, err := tcdp.Lifetime(a, s, months)
	if err != nil {
		return "", err
	}
	sbSeries, err := tcdp.Lifetime(b, s, months)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%6s %12s %12s %12s %12s %12s %12s %8s\n",
		"month", "Si emb", "Si op", "Si tC", "M3D emb", "M3D op", "M3D tC", "ratio")
	for i := range sa.Months {
		ratio := sa.TCDPSeries[i] / sbSeries.TCDPSeries[i]
		fmt.Fprintf(&sb, "%6.0f %12.3f %12.3f %12.3f %12.3f %12.3f %12.3f %8.4f\n",
			sa.Months[i], sa.Embodied[i], sa.Operational[i], sa.TCSeries[i],
			sbSeries.Embodied[i], sbSeries.Operational[i], sbSeries.TCSeries[i], ratio)
	}
	if c, err := tcdp.EmbodiedOperationalCrossover(a, s); err == nil {
		fmt.Fprintf(&sb, "all-Si C_embodied dominates until %.1f months (paper: 14)\n", float64(c))
	}
	if c, err := tcdp.EmbodiedOperationalCrossover(b, s); err == nil {
		fmt.Fprintf(&sb, "M3D    C_embodied dominates until %.1f months (paper: 19)\n", float64(c))
	}
	if c, err := tcdp.DesignCrossover(a, b, s); err == nil {
		fmt.Fprintf(&sb, "tC curves cross at %.1f months\n", float64(c))
	}
	if r, err := tcdp.Ratio(a, b, s, units.Months(months)); err == nil {
		fmt.Fprintf(&sb, "tCDP(all-Si)/tCDP(M3D) at %d months = %.3f (paper: 1.02 at 24)\n", months, r)
	}
	return sb.String(), nil
}

// Fig6a regenerates Fig. 6a: the tCDP-benefit colormap and the isoline.
func Fig6a(si, m3d *PPAtC, months int) (string, error) {
	s := tcdp.PaperScenario()
	embScales := []float64{0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0}
	opScales := []float64{0.25, 0.5, 0.75, 1.0, 1.25, 1.5}
	m, err := tcdp.Map(m3d.DesignPoint(), si.DesignPoint(), s, units.Months(months), embScales, opScales)
	if err != nil {
		return "", err
	}
	iso, err := tcdp.Isoline(m3d.DesignPoint(), si.DesignPoint(), s, units.Months(months))
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "tCDP benefit of M3D vs all-Si (>1 means M3D wins), %d-month lifetime\n", months)
	fmt.Fprintf(&sb, "%8s", "op\\emb")
	for _, x := range embScales {
		fmt.Fprintf(&sb, " %6.2f", x)
	}
	sb.WriteByte('\n')
	for i, y := range opScales {
		fmt.Fprintf(&sb, "%8.2f", y)
		for j := range embScales {
			fmt.Fprintf(&sb, " %6.3f", m.Benefit[i][j])
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "isoline (embodied scale where the designs tie):\n")
	for _, y := range opScales {
		fmt.Fprintf(&sb, "  op scale %.2f → embodied scale %.3f\n", y, iso(y))
	}
	return sb.String(), nil
}

// Fig6b regenerates Fig. 6b: the isoline family under uncertainty.
func Fig6b(si, m3d *PPAtC, months int) (string, error) {
	s := tcdp.PaperScenario()
	vars, err := tcdp.UncertaintySet(m3d.DesignPoint(), si.DesignPoint(), s, units.Months(months))
	if err != nil {
		return "", err
	}
	opScales := []float64{0.25, 0.5, 0.75, 1.0, 1.25, 1.5}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s", "variant\\op scale")
	for _, y := range opScales {
		fmt.Fprintf(&sb, " %7.2f", y)
	}
	sb.WriteByte('\n')
	for _, v := range vars {
		fmt.Fprintf(&sb, "%-20s", v.Name)
		for _, y := range opScales {
			fmt.Fprintf(&sb, " %7.3f", v.Isoline(y))
		}
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}
