package main

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"time"

	"ppatc/internal/carbon"
	"ppatc/internal/core"
	"ppatc/internal/edram"
	"ppatc/internal/embench"
	"ppatc/internal/floorplan"
	"ppatc/internal/process"
	"ppatc/internal/stdcell"
	"ppatc/internal/synth"
	"ppatc/internal/thumb"
	"ppatc/internal/units"
	"ppatc/internal/wafer"
)

// paperParams sizes the paper-cold workload. The defaults are the
// paper's case study, the only inputs golden.json covers; the seed does
// not change them.
type paperParams struct {
	workload string
	grid     carbon.Grid
	months   int
}

var paperDefaults = paperParams{workload: "matmult-int", grid: carbon.GridUS, months: 24}

// paperTailPct is paper-cold's tail percentile: a 20 s run holds about
// 50 iterations.
const paperTailPct = 75

// maxCycles bounds one simulation, as core's pipeline does.
const maxCycles = 1 << 34

type paperInputs struct {
	w       embench.Workload
	si, m3d core.SystemDesign
}

// paperSetup builds what a `ppatc report` process needs before its first
// evaluation: the bundled kernels (each runs its Go reference for its
// checksum), the chosen one assembled, and both designs.
func paperSetup(p paperParams) (paperInputs, error) {
	in := paperInputs{si: core.AllSiSystem(), m3d: core.M3DSystem()}
	found := false
	for _, w := range []embench.Workload{
		embench.MatmultInt(), embench.CRC32(), embench.EDN(), embench.Sieve(),
		embench.StrSearch(), embench.BlockMove(), embench.Huff(), embench.QSortInt(),
	} {
		if w.Name == p.workload {
			in.w, found = w, true
		}
	}
	if !found {
		return in, fmt.Errorf("paper-cold: unknown kernel %q", p.workload)
	}
	if _, err := thumb.Assemble(in.w.Source); err != nil {
		return in, fmt.Errorf("paper-cold: %w", err)
	}
	return in, nil
}

// replayStats counts what the traced stage calls did.
type replayStats struct {
	embenchCalls, edramCalls, synthCalls, floorplanCalls, carbonCalls int
	cycles, instructions, edramAllocs                                 uint64
	matmult                                                           simCounts
}

// runPaperCold is the `ppatc report` user: one caller evaluating Table
// II cold and rendering every figure from it, back to back. In a traced
// run every second iteration replays the evaluations stage by stage and
// must equal the preceding untraced iteration's results bit for bit.
func runPaperCold(cfg runConfig, p paperParams) (*result, error) {
	r := newResult()
	ctx := context.Background()
	// Set-up is the time to a first report: the inputs built, then one
	// untimed iteration.
	in, err := timeSetup(r, func() (paperInputs, error) {
		in, err := paperSetup(p)
		if err != nil {
			return in, err
		}
		_, _, _, _, err = paperUntraced(ctx, in, p)
		return in, err
	}, nil)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	wantText, wantErr, wantCounts := "", "", ""
	if p == paperDefaults {
		wantText, wantErr = cfg.golden.PaperText, fmt.Sprintf("%.6g", cfg.golden.PaperMaxRelErr)
		wantCounts = cfg.golden.Matmult.String()
	}
	var (
		st            replayStats
		lastSi, lastM *core.PPAtC
		evalMS        []float64
		relErr        float64
	)
	n := runClosed(r, cfg.seconds, cfg.trace, paperTailPct, func(i int, traced bool) (time.Duration, error) {
		var (
			si, m3d *core.PPAtC
			text    string
			err     error
		)
		opStart := time.Now()
		if traced {
			si, m3d, text, err = paperTraced(tr, uint64(i+1), in, p, &st)
		} else {
			var table2 time.Duration
			si, m3d, text, table2, err = paperUntraced(ctx, in, p)
			if err == nil {
				evalMS = append(evalMS, float64(table2.Nanoseconds())/2e6)
			}
		}
		d := time.Since(opStart)
		if err != nil {
			return d, err
		}
		if traced {
			same := reflect.DeepEqual(si, lastSi) && reflect.DeepEqual(m3d, lastM)
			if !r.check("paper-cold replay equals core.EvaluateContext", fmt.Sprint(same), "true") ||
				!r.check("matmult-int counts", st.matmult.String(), wantCounts) {
				return d, fmt.Errorf("paper-cold: traced iteration %d differs", i)
			}
		}
		lastSi, lastM = si, m3d
		relErr = maxRelErr(si, m3d)
		if !r.check("paper-cold text", digest([]byte(text)), wantText) ||
			!r.check("paper-cold max_rel_err", fmt.Sprintf("%.6g", relErr), wantErr) {
			return d, fmt.Errorf("paper-cold: output differs from golden.json")
		}
		return d, nil
	})
	r.set("paper.max_rel_err", relErr, 1)
	if tr == nil {
		return r, nil
	}

	r.spans = tr.recorded()
	self := selfTimes(r.spans)
	perOp := func(ns int64) float64 { return float64(ns) / 1e6 / float64(n) }
	perOpCount := func(c int) float64 { return float64(c) / float64(n) }
	r.set("embench.self_ms", perOp(self["embench"]), n)
	r.set("embench.calls", perOpCount(st.embenchCalls), n)
	if st.embenchCalls > 0 {
		r.set("embench.sim_cycles", float64(st.cycles)/float64(st.embenchCalls), st.embenchCalls)
		r.set("embench.sim_minstr_per_s", float64(st.instructions)/(float64(self["embench"])/1e9)/1e6, st.embenchCalls)
	}
	r.set("edram.self_ms", perOp(self["edram"]), n)
	r.set("edram.calls", perOpCount(st.edramCalls), n)
	if st.edramCalls > 0 {
		r.set("edram.allocs_per_call", float64(st.edramAllocs)/float64(st.edramCalls), st.edramCalls)
	}
	r.set("synth.self_ms", perOp(self["synth"]), n)
	r.set("synth.calls", perOpCount(st.synthCalls), n)
	r.set("floorplan.self_ms", perOp(self["floorplan"]), n)
	r.set("floorplan.calls", perOpCount(st.floorplanCalls), n)
	r.set("carbon.self_ms", perOp(self["carbon"]), n)
	r.set("carbon.calls", perOpCount(st.carbonCalls), n)
	r.set("figures.self_ms", perOp(self["figures"]), n)
	evaluate := mean(evalMS)
	stages := self["embench"] + self["edram"] + self["synth"] + self["floorplan"] + self["carbon"]
	r.set("core.evaluate_ms", evaluate, len(evalMS))
	r.set("core.residual_ms", evaluate-float64(stages)/1e6/float64(2*n), len(evalMS))
	return r, nil
}

// paperUntraced is one paper-cold iteration as `ppatc report` runs it:
// core.Table2Context, then the figures. table2 is the Table2Context
// call's duration, two evaluations.
func paperUntraced(ctx context.Context, in paperInputs, p paperParams) (si, m3d *core.PPAtC, text string, table2 time.Duration, err error) {
	start := time.Now()
	si, m3d, table, err := core.Table2Context(ctx, in.w, p.grid)
	table2 = time.Since(start)
	if err != nil {
		return nil, nil, "", table2, err
	}
	figs, err := renderFigures(si, m3d, p.months)
	return si, m3d, "table2\n" + table + figs, table2, err
}

// paperTraced is one traced paper-cold iteration: both evaluations
// replayed stage by stage, then Table II and the figures.
func paperTraced(tr *tracer, trace uint64, in paperInputs, p paperParams, st *replayStats) (si, m3d *core.PPAtC, text string, err error) {
	root := tr.begin(trace, 0, "iteration")
	defer root.end()
	si, err = replay(tr, trace, root.id(), in.si, in.w, p.grid, st)
	if err != nil {
		return nil, nil, "", err
	}
	m3d, err = replay(tr, trace, root.id(), in.m3d, in.w, p.grid, st)
	if err != nil {
		return nil, nil, "", err
	}
	sp := tr.begin(trace, root.id(), "figures")
	table := core.FormatTable2(si, m3d)
	figs, err := renderFigures(si, m3d, p.months)
	sp.end()
	return si, m3d, "table2\n" + table + figs, err
}

// renderFigures renders the figures `ppatc report` prints after Table
// II, each under a header line.
func renderFigures(si, m3d *core.PPAtC, months int) (string, error) {
	var sb strings.Builder
	for _, f := range []struct {
		name   string
		render func() (string, error)
	}{
		{"fig2c", core.Fig2c},
		{"fig2d", core.Fig2d},
		{"table1", func() (string, error) { return core.Table1(), nil }},
		{"fig4", core.Fig4},
		{"fig5", func() (string, error) { return core.Fig5(si, m3d, months) }},
		{"fig6a", func() (string, error) { return core.Fig6a(si, m3d, months) }},
		{"fig6b", func() (string, error) { return core.Fig6b(si, m3d, months) }},
	} {
		text, err := f.render()
		if err != nil {
			return "", fmt.Errorf("%s: %w", f.name, err)
		}
		sb.WriteString(f.name + "\n" + text)
	}
	return sb.String(), nil
}

// replay evaluates one design through the public stage functions in the
// order core's pipeline calls them, timing each stage in its own span.
// It assembles the same PPAtC core.EvaluateContext returns.
func replay(tr *tracer, trace, parent uint64, sys core.SystemDesign, w embench.Workload, grid carbon.Grid, st *replayStats) (*core.PPAtC, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	ev := tr.begin(trace, parent, "core.evaluate")
	defer ev.end()

	sp := tr.begin(trace, ev.id(), "embench")
	run, err := embench.Run(w, maxCycles)
	sp.end()
	if err != nil {
		return nil, err
	}
	st.embenchCalls++
	st.cycles += run.Cycles
	st.instructions += run.Instructions
	if w.Name == "matmult-int" {
		st.matmult = simCounts{run.Cycles, run.Instructions, run.Stats.ProgramReads, run.Stats.DataReads, run.Stats.DataWrites}
	}

	a0 := mallocs()
	sp = tr.begin(trace, ev.id(), "edram")
	mem, err := edram.Build(sys.Cell, sys.Array, sys.Periphery)
	sp.end()
	st.edramAllocs += mallocs() - a0
	st.edramCalls++
	if err != nil {
		return nil, err
	}
	if !mem.MeetsTiming(sys.Clock) {
		return nil, fmt.Errorf("%s memory misses timing at %v", sys.Name, sys.Clock)
	}

	sp = tr.begin(trace, ev.id(), "synth")
	cRes, err := synth.Close(sys.Core, stdcell.New(sys.CoreFlavor), sys.Clock)
	sp.end()
	st.synthCalls++
	if err != nil {
		return nil, err
	}
	if !cRes.Closed {
		return nil, fmt.Errorf("%s M0 fails timing closure at %v", sys.Name, sys.Clock)
	}
	progE, err := mem.EnergyPerCycle(run.ProgramReadsPerCycle(), 0, sys.Clock)
	if err != nil {
		return nil, err
	}
	dataE, err := mem.EnergyPerCycle(run.DataReadsPerCycle(), run.DataWritesPerCycle(), sys.Clock)
	if err != nil {
		return nil, err
	}
	memPerCycle := progE + dataE

	sp = tr.begin(trace, ev.id(), "floorplan")
	chip, err := floorplan.Compose(mem.Width, mem.Height, mem.Area, sys.Core.Area())
	sp.end()
	st.floorplanCalls++
	if err != nil {
		return nil, err
	}

	sp = tr.begin(trace, ev.id(), "carbon")
	emb, err := embodiedChain(sys, grid, chip)
	sp.end()
	st.carbonCalls++
	if err != nil {
		return nil, err
	}
	return &core.PPAtC{
		System:               sys.Name,
		Workload:             w.Name,
		Clock:                sys.Clock,
		Cycles:               run.Cycles,
		ExecTime:             float64(run.Cycles) * sys.Clock.PeriodSeconds(),
		M0DynamicPerCycle:    cRes.DynamicEnergy,
		MemPerCycle:          memPerCycle,
		M0LeakagePower:       cRes.LeakagePower,
		OperationalPower:     carbon.OperationalPower(cRes.LeakagePower, cRes.DynamicEnergy, memPerCycle, sys.Clock),
		MemoryArea:           mem.Area,
		TotalArea:            chip.Area,
		DieWidth:             chip.Width,
		DieHeight:            chip.Height,
		EPA:                  emb.epa,
		EmbodiedPerWafer:     emb.breakdown,
		DiesPerWafer:         emb.dies,
		Yield:                emb.yield,
		EmbodiedPerGoodDie:   emb.perGood,
		Memory:               mem,
		ProgramReadsPerCycle: run.ProgramReadsPerCycle(),
		DataReadsPerCycle:    run.DataReadsPerCycle(),
		DataWritesPerCycle:   run.DataWritesPerCycle(),
	}, nil
}

// embodied is the carbon stage's output.
type embodied struct {
	epa       units.Energy
	breakdown carbon.EmbodiedBreakdown
	dies      int
	yield     float64
	perGood   units.Carbon
}

// embodiedChain is the carbon stage through the process, carbon, wafer
// and yield packages: EPA → GPA → MPA → embodied per wafer → dies →
// yield → embodied per good die.
func embodiedChain(sys core.SystemDesign, grid carbon.Grid, chip floorplan.Chip) (embodied, error) {
	var out embodied
	epa, err := sys.Flow.EPA(process.DefaultEnergyTable())
	if err != nil {
		return out, err
	}
	gpa, err := carbon.GPAScaled(epa, process.IN7Reference(), process.IN7GPA())
	if err != nil {
		return out, err
	}
	waferArea := sys.Wafer.Area()
	var films []process.FilmMaterial
	if sys.HasCNT {
		f, err := process.CNTMaterial(process.PaperCNTFilm(waferArea))
		if err != nil {
			return out, err
		}
		films = append(films, f)
	}
	if sys.HasIGZO {
		f, err := process.IGZOMaterial(process.PaperIGZOFilm(waferArea))
		if err != nil {
			return out, err
		}
		films = append(films, f)
	}
	mpa, err := process.MPAWithFilms(waferArea, films...)
	if err != nil {
		return out, err
	}
	breakdown, err := carbon.EmbodiedPerWafer(carbon.EmbodiedInputs{
		MPA: mpa, GPA: gpa, EPA: epa, CIFab: grid.Intensity, WaferArea: waferArea,
	})
	if err != nil {
		return out, err
	}
	dies, err := wafer.EstimateGeometric(sys.Wafer, wafer.Die{Width: chip.Width, Height: chip.Height, Spacing: sys.DieSpacing})
	if err != nil {
		return out, err
	}
	y, err := sys.Yield.Yield(chip.Area)
	if err != nil {
		return out, err
	}
	perGood, err := carbon.PerGoodDie(breakdown.Total(), dies, y)
	if err != nil {
		return out, err
	}
	return embodied{epa: epa, breakdown: breakdown, dies: dies, yield: y, perGood: perGood}, nil
}

// maxRelErr is the largest relative error of a Table II evaluation pair
// against the paper's published Table II values (all-Si, then M3D).
func maxRelErr(si, m3d *core.PPAtC) float64 {
	anchors := []struct{ got, paper float64 }{
		{si.M0DynamicPerCycle.Picojoules(), 1.42},
		{m3d.M0DynamicPerCycle.Picojoules(), 1.42},
		{si.MemPerCycle.Picojoules(), 18.0},
		{m3d.MemPerCycle.Picojoules(), 15.5},
		{si.MemoryArea.SquareMillimeters(), 0.068},
		{m3d.MemoryArea.SquareMillimeters(), 0.025},
		{si.TotalArea.SquareMillimeters(), 0.139},
		{m3d.TotalArea.SquareMillimeters(), 0.053},
		{si.EmbodiedPerWafer.Total().Kilograms(), 837},
		{m3d.EmbodiedPerWafer.Total().Kilograms(), 1100},
		{float64(si.DiesPerWafer), 299127},
		{float64(m3d.DiesPerWafer), 606238},
		{si.EmbodiedPerGoodDie.Grams(), 3.11},
		{m3d.EmbodiedPerGoodDie.Grams(), 3.63},
		{si.OperationalPower.Milliwatts(), 9.71},
		{m3d.OperationalPower.Milliwatts(), 8.46},
		{float64(si.Cycles), 20047348},
	}
	var worst float64
	for _, a := range anchors {
		e := a.got/a.paper - 1
		if e < 0 {
			e = -e
		}
		worst = max(worst, e)
	}
	return worst
}
