// Package core is the PPAtC engine: it ties every substrate together to
// evaluate a complete embedded system — ARM Cortex-M0 plus two 64 kB eDRAM
// macros — in a chosen fabrication technology, reproducing the paper's
// five-step design flow (Sec. III-B):
//
//  1. memory sizing (fixed at the paper's 64 kB program + 64 kB data),
//  2. eDRAM schematic & physical design (internal/edram, SPICE-validated),
//  3. M0 synthesis and timing closure (internal/synth),
//  4. application-dependent energy from ISA simulation (internal/embench),
//  5. total carbon per good die (internal/process, wafer, yield, carbon).
//
// The output of Evaluate is a PPAtC report — the rows of the paper's
// Table II — which the tcdp package turns into lifetime and carbon-
// efficiency analyses (Figs. 5 and 6).
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"ppatc/internal/carbon"
	"ppatc/internal/device"
	"ppatc/internal/edram"
	"ppatc/internal/embench"
	"ppatc/internal/floorplan"
	"ppatc/internal/obs"
	"ppatc/internal/process"
	"ppatc/internal/synth"
	"ppatc/internal/units"
	"ppatc/internal/wafer"
	"ppatc/internal/yield"
)

// Stage names of the five-step flow, as they appear in trace spans,
// provenance records, and the daemon's per-stage latency histograms.
const (
	StageEmbench   = "embench"
	StageEDRAM     = "edram"
	StageSynth     = "synth"
	StageFloorplan = "floorplan"
	StageCarbon    = "carbon"
)

// Stages lists the pipeline stage names in execution order.
func Stages() []string {
	return []string{StageEmbench, StageEDRAM, StageSynth, StageFloorplan, StageCarbon}
}

// SystemDesign is one technology realization of the embedded system.
type SystemDesign struct {
	// Name identifies the design ("all-Si", "M3D IGZO/CNFET/Si").
	Name string
	// Flow is the fabrication process.
	Flow *process.Flow
	// Cell is the eDRAM bit-cell implementation.
	Cell edram.CellDesign
	// Array is the memory organization (shared by both macros).
	Array edram.ArraySpec
	// Periphery is the memory peripheral energy set.
	Periphery edram.PeripheryEnergies
	// Core is the M0 synthesis model.
	Core synth.Design
	// CoreFlavor is the VT flavour the core is implemented in.
	CoreFlavor device.VTFlavor
	// Clock is the system clock (500 MHz in the case study).
	Clock units.Frequency
	// Yield is the die-yield model.
	Yield yield.Model
	// Wafer is the wafer specification.
	Wafer wafer.Spec
	// DieSpacing is the scribe spacing between dies.
	DieSpacing units.Length
	// HasCNT and HasIGZO flag the beyond-Si films for MPA accounting.
	HasCNT, HasIGZO bool
}

// PaperClock is the case study's clock frequency.
var PaperClock = units.Megahertz(500)

// AllSiSystem returns the baseline design of Fig. 1c.
func AllSiSystem() SystemDesign {
	cell := edram.SiCellDesign()
	return SystemDesign{
		Name:       AllSiName,
		Flow:       process.AllSi7nm(),
		Cell:       cell,
		Array:      edram.PaperArray(),
		Periphery:  edram.PaperPeriphery(cell),
		Core:       synth.CortexM0(),
		CoreFlavor: device.RVT,
		Clock:      PaperClock,
		Yield:      yield.PaperAllSi,
		Wafer:      wafer.Paper300mm(),
		DieSpacing: units.Millimeters(0.1),
	}
}

// M3DSystem returns the monolithic-3D design of Fig. 1b.
func M3DSystem() SystemDesign {
	cell := edram.M3DCellDesign()
	return SystemDesign{
		Name:       M3DName,
		Flow:       process.M3D7nm(),
		Cell:       cell,
		Array:      edram.PaperArray(),
		Periphery:  edram.PaperPeriphery(cell),
		Core:       synth.CortexM0(),
		CoreFlavor: device.RVT,
		Clock:      PaperClock,
		Yield:      yield.PaperM3D,
		Wafer:      wafer.Paper300mm(),
		DieSpacing: units.Millimeters(0.1),
		HasCNT:     true,
		HasIGZO:    true,
	}
}

// Systems returns the bundled system designs in the paper's order.
func Systems() []SystemDesign {
	return []SystemDesign{AllSiSystem(), M3DSystem()}
}

// Canonical names of the bundled designs, as they appear in reports and
// cache keys.
const (
	AllSiName = "all-Si"
	M3DName   = "M3D IGZO/CNFET/Si"
)

// CanonicalSystemName resolves a design name or shorthand to its
// canonical form without constructing the design. Request validation and
// cache-key building on serving hot paths use this; the full (and much
// more expensive) SystemByName construction is deferred to cache misses.
func CanonicalSystemName(name string) (string, error) {
	switch strings.ToLower(name) {
	case "si", "all-si", "allsi":
		return AllSiName, nil
	case "m3d":
		return M3DName, nil
	}
	if strings.EqualFold(name, AllSiName) {
		return AllSiName, nil
	}
	if strings.EqualFold(name, M3DName) {
		return M3DName, nil
	}
	return "", fmt.Errorf("core: unknown system %q (valid: %s, %s, or the shorthands si, m3d)",
		name, AllSiName, M3DName)
}

// SystemByName looks up a bundled design by its full name, case-insensitively,
// also accepting the shorthands "si", "all-si" and "m3d".
func SystemByName(name string) (SystemDesign, error) {
	canonical, err := CanonicalSystemName(name)
	if err != nil {
		return SystemDesign{}, err
	}
	if canonical == AllSiName {
		return AllSiSystem(), nil
	}
	return M3DSystem(), nil
}

// Validate checks the design is complete.
func (s SystemDesign) Validate() error {
	switch {
	case s.Name == "":
		return errors.New("core: design must be named")
	case s.Flow == nil:
		return errors.New("core: design needs a process flow")
	case s.Yield == nil:
		return errors.New("core: design needs a yield model")
	case s.Clock <= 0:
		return errors.New("core: clock must be positive")
	case s.DieSpacing < 0:
		return errors.New("core: die spacing must be non-negative")
	}
	return nil
}

// PPAtC is the full evaluation result — the paper's Table II plus the
// intermediate quantities behind it.
type PPAtC struct {
	// System echoes the design name; Workload the application.
	System, Workload string
	// Clock is the operating frequency.
	Clock units.Frequency

	// --- Performance ---
	// Cycles is the cycle count of one application execution.
	Cycles uint64
	// ExecTime is Cycles / Clock.
	ExecTime float64

	// --- Power / energy ---
	// M0DynamicPerCycle is the core's dynamic energy per cycle.
	M0DynamicPerCycle units.Energy
	// MemPerCycle is the combined program+data memory energy per cycle
	// (accesses, refresh and leakage).
	MemPerCycle units.Energy
	// M0LeakagePower is the core's static power.
	M0LeakagePower units.Power
	// OperationalPower is the total power while running (Eq. 6).
	OperationalPower units.Power

	// --- Area ---
	// MemoryArea is one 64 kB macro footprint.
	MemoryArea units.Area
	// TotalArea is the die area; DieWidth/DieHeight its dimensions.
	TotalArea           units.Area
	DieWidth, DieHeight units.Length

	// --- Carbon ---
	// EPA is the fabrication energy per wafer.
	EPA units.Energy
	// EmbodiedPerWafer is the per-wafer embodied carbon breakdown.
	EmbodiedPerWafer carbon.EmbodiedBreakdown
	// DiesPerWafer and Yield size the good-die amortization.
	DiesPerWafer int
	Yield        float64
	// EmbodiedPerGoodDie is Eq. 5's result.
	EmbodiedPerGoodDie units.Carbon

	// --- Memory details ---
	// Program and Data are the characterized macros (identical hardware,
	// different access mixes).
	Memory *edram.Memory
	// ProgramReadsPerCycle, DataReadsPerCycle and DataWritesPerCycle are
	// the workload's per-cycle memory access rates.
	ProgramReadsPerCycle, DataReadsPerCycle, DataWritesPerCycle float64

	// Provenance records the intermediate quantity each stage produced,
	// so any Table-2 number can be audited back to its inputs. Collected
	// only when the evaluation context asks for it via
	// obs.WithProvenanceEnabled; nil otherwise.
	Provenance []obs.Field
}

// Evaluate runs the full design flow for a system and workload on a grid.
func Evaluate(sys SystemDesign, w embench.Workload, grid carbon.Grid) (*PPAtC, error) {
	return EvaluateContext(context.Background(), sys, w, grid)
}

// EvaluateContext is Evaluate with cancellation: the flow checks ctx between
// its expensive stages (ISA simulation, eDRAM characterization, synthesis)
// so callers serving many evaluations — the ppatcd daemon in particular —
// can abandon work whose requester has gone away or timed out. It
// evaluates through a memo that lives for this call only.
func EvaluateContext(ctx context.Context, sys SystemDesign, w embench.Workload, grid carbon.Grid) (*PPAtC, error) {
	return NewMemo().EvaluateContext(ctx, sys, w, grid)
}

// EvaluateContext is core.EvaluateContext through the memo: each stage
// runs once per distinct input slice and is replayed from the memo
// afterwards. Replays return the stored stage outputs, so results — and
// anything encoded from them — do not depend on what the memo held.
func (m *Memo) EvaluateContext(ctx context.Context, sys SystemDesign, w embench.Workload, grid carbon.Grid) (*PPAtC, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Observability is opt-in per context and free when absent: spans are
	// nil no-ops without a trace, and prov stays a nil no-op collector
	// unless provenance was requested. Stage spans open inside the memo
	// closures, so a memo hit — a stage that did not run — emits no span.
	ctx, evalSpan := obs.StartSpan(ctx, "evaluate")
	defer evalSpan.End()
	evalSpan.SetStr("system", sys.Name)
	evalSpan.SetStr("workload", w.Name)
	evalSpan.SetStr("grid", grid.Name)
	var prov *obs.Provenance
	if obs.ProvenanceEnabled(ctx) {
		prov = obs.NewProvenance()
	}

	// Step 4 first: the workload's cycle count and access mix. The only
	// input is the workload itself (the cycle budget is fixed), so the
	// memo key is the workload name.
	run, err := memoEmbench(ctx, m, w)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prov.Record(StageEmbench, "cycles", float64(run.Cycles), "cycles")
	prov.Record(StageEmbench, "instructions", float64(run.Instructions), "insns")
	prov.Record(StageEmbench, "program_reads_per_cycle", run.ProgramReadsPerCycle(), "")
	prov.Record(StageEmbench, "data_reads_per_cycle", run.DataReadsPerCycle(), "")
	prov.Record(StageEmbench, "data_writes_per_cycle", run.DataWritesPerCycle(), "")

	// Step 2: characterize the eDRAM macro. The build depends only on
	// the design's cell/array/periphery (identified by the system name);
	// the timing check depends on the clock too, so it runs per call,
	// outside the memo.
	mem, err := memoEDRAM(ctx, m, sys)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !mem.MeetsTiming(sys.Clock) {
		return nil, fmt.Errorf("core: %s memory misses timing at %v", sys.Name, sys.Clock)
	}
	accessDelay := mem.ReadLatency
	if mem.WriteLatency > accessDelay {
		accessDelay = mem.WriteLatency
	}
	timingMarginPS := (sys.Clock.PeriodSeconds() - accessDelay) * 1e12
	prov.Record(StageEDRAM, "macro_area_mm2", mem.Area.SquareMillimeters(), "mm2")
	prov.Record(StageEDRAM, "read_energy_pj", mem.ReadEnergy*1e12, "pJ")
	prov.Record(StageEDRAM, "write_energy_pj", mem.WriteEnergy*1e12, "pJ")
	prov.Record(StageEDRAM, "refresh_power_mw", mem.RefreshPower*1e3, "mW")
	prov.Record(StageEDRAM, "leakage_power_mw", mem.LeakagePower*1e3, "mW")
	prov.Record(StageEDRAM, "timing_margin_ps", timingMarginPS, "ps")

	// Step 3: synthesize the core at the target clock (memo key: core
	// flavour + clock, via the system name).
	cRes, err := memoSynth(ctx, m, sys)
	if err != nil {
		return nil, err
	}
	if !cRes.Closed {
		return nil, fmt.Errorf("core: %s M0 fails timing closure at %v", sys.Name, sys.Clock)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prov.Record(StageSynth, "dynamic_energy_pj_per_cycle", cRes.DynamicEnergy.Picojoules(), "pJ")
	prov.Record(StageSynth, "leakage_power_mw", cRes.LeakagePower.Milliwatts(), "mW")
	prov.Record(StageSynth, "critical_path_ps", cRes.CriticalPath*1e12, "ps")
	prov.Record(StageSynth, "sizing", cRes.Sizing, "x")
	prov.Record(StageSynth, "core_area_mm2", sys.Core.Area().SquareMillimeters(), "mm2")

	// Memory energy: program macro serves fetches; data macro serves
	// loads/stores; both pay refresh + leakage every cycle.
	progE, err := mem.EnergyPerCycle(run.ProgramReadsPerCycle(), 0, sys.Clock)
	if err != nil {
		return nil, err
	}
	dataE, err := mem.EnergyPerCycle(run.DataReadsPerCycle(), run.DataWritesPerCycle(), sys.Clock)
	if err != nil {
		return nil, err
	}
	memPerCycle := progE + dataE
	prov.Record(StageEDRAM, "memory_pj_per_cycle", memPerCycle.Picojoules(), "pJ")

	// Floorplan: two macros plus the core. Inputs are the macro
	// dimensions (a function of the design) and the fixed core area, so
	// the memo key is the system name.
	chip, err := memoFloorplan(ctx, m, sys, mem)
	if err != nil {
		return nil, err
	}
	prov.Record(StageFloorplan, "die_width_um", chip.Width.Micrometers(), "um")
	prov.Record(StageFloorplan, "die_height_um", chip.Height.Micrometers(), "um")
	prov.Record(StageFloorplan, "die_area_mm2", chip.Area.SquareMillimeters(), "mm2")

	// Step 5: carbon. The embodied chain (EPA → GPA → MPA → per-wafer →
	// yield → per-good-die) depends on the design, the die, and the
	// fabrication grid's carbon intensity — the memo key — while Eq. 6's
	// operational power also folds in the workload's memory energy, so
	// it is cheap arithmetic done per call.
	res, err := memoCarbon(ctx, m, sys, grid, chip)
	if err != nil {
		return nil, err
	}
	opPower := carbon.OperationalPower(cRes.LeakagePower, cRes.DynamicEnergy, memPerCycle, sys.Clock)
	prov.Record(StageCarbon, "epa_kwh_per_wafer", res.epa.KilowattHours(), "kWh")
	prov.Record(StageCarbon, "epa_facility_kwh_per_wafer", res.breakdown.EPAFacility.KilowattHours(), "kWh")
	prov.Record(StageCarbon, "gpa_kg_per_wafer", res.breakdown.Gases.Kilograms(), "kg")
	prov.Record(StageCarbon, "mpa_kg_per_wafer", res.breakdown.Materials.Kilograms(), "kg")
	prov.Record(StageCarbon, "electricity_kg_per_wafer", res.breakdown.Electricity.Kilograms(), "kg")
	prov.Record(StageCarbon, "embodied_per_wafer_kg", res.breakdown.Total().Kilograms(), "kg")
	prov.Record(StageCarbon, "dies_per_wafer", float64(res.dies), "dies")
	prov.Record(StageCarbon, "yield", res.yield, "")
	prov.Record(StageCarbon, "embodied_per_good_die_g", res.perGood.Grams(), "g")
	prov.Record(StageCarbon, "operational_power_mw", opPower.Milliwatts(), "mW")

	return &PPAtC{
		System:               sys.Name,
		Workload:             w.Name,
		Clock:                sys.Clock,
		Cycles:               run.Cycles,
		ExecTime:             float64(run.Cycles) * sys.Clock.PeriodSeconds(),
		M0DynamicPerCycle:    cRes.DynamicEnergy,
		MemPerCycle:          memPerCycle,
		M0LeakagePower:       cRes.LeakagePower,
		OperationalPower:     opPower,
		MemoryArea:           mem.Area,
		TotalArea:            chip.Area,
		DieWidth:             chip.Width,
		DieHeight:            chip.Height,
		EPA:                  res.epa,
		EmbodiedPerWafer:     res.breakdown,
		DiesPerWafer:         res.dies,
		Yield:                res.yield,
		EmbodiedPerGoodDie:   res.perGood,
		Memory:               mem,
		ProgramReadsPerCycle: run.ProgramReadsPerCycle(),
		DataReadsPerCycle:    run.DataReadsPerCycle(),
		DataWritesPerCycle:   run.DataWritesPerCycle(),
		Provenance:           prov.Fields(),
	}, nil
}

// carbonResult is the embodied-carbon output bundle of carbonChain: the
// workload-independent part of Step 5 (everything except Eq. 6's
// operational power), which is what the stage memo caches per
// (design, grid) pair.
type carbonResult struct {
	epa       units.Energy
	breakdown carbon.EmbodiedBreakdown
	dies      int
	yield     float64
	perGood   units.Carbon
}

// carbonChain runs the EPA → GPA → MPA → embodied → yield → per-good-die
// chain. It is a pure function of the design, the grid's fabrication
// carbon intensity, and the floorplanned die.
func carbonChain(sys SystemDesign, grid carbon.Grid, chip floorplan.Chip) (carbonResult, error) {
	var out carbonResult
	epa, breakdown, err := embodiedPerWafer(sys, grid)
	if err != nil {
		return out, err
	}

	die := wafer.Die{Width: chip.Width, Height: chip.Height, Spacing: sys.DieSpacing}
	dies, err := wafer.EstimateGeometric(sys.Wafer, die)
	if err != nil {
		return out, err
	}
	yieldVal, err := sys.Yield.Yield(chip.Area)
	if err != nil {
		return out, err
	}
	perGood, err := carbon.PerGoodDie(breakdown.Total(), dies, yieldVal)
	if err != nil {
		return out, err
	}

	out = carbonResult{epa: epa, breakdown: breakdown, dies: dies, yield: yieldVal, perGood: perGood}
	return out, nil
}

// embodiedPerWafer evaluates Eq. 2 per wafer for a design on a grid:
// EPA → GPA → the beyond-Si film materials the design carries → MPA →
// the embodied breakdown. It returns the EPA too, which carbonChain
// reports on its own.
func embodiedPerWafer(sys SystemDesign, grid carbon.Grid) (units.Energy, carbon.EmbodiedBreakdown, error) {
	epa, err := sys.Flow.EPA(process.DefaultEnergyTable())
	if err != nil {
		return 0, carbon.EmbodiedBreakdown{}, err
	}
	gpa, err := carbon.GPAScaled(epa, process.IN7Reference(), process.IN7GPA())
	if err != nil {
		return 0, carbon.EmbodiedBreakdown{}, err
	}
	waferArea := sys.Wafer.Area()
	var films []process.FilmMaterial
	if sys.HasCNT {
		f, err := process.CNTMaterial(process.PaperCNTFilm(waferArea))
		if err != nil {
			return 0, carbon.EmbodiedBreakdown{}, err
		}
		films = append(films, f)
	}
	if sys.HasIGZO {
		f, err := process.IGZOMaterial(process.PaperIGZOFilm(waferArea))
		if err != nil {
			return 0, carbon.EmbodiedBreakdown{}, err
		}
		films = append(films, f)
	}
	mpa, err := process.MPAWithFilms(waferArea, films...)
	if err != nil {
		return 0, carbon.EmbodiedBreakdown{}, err
	}
	breakdown, err := carbon.EmbodiedPerWafer(carbon.EmbodiedInputs{
		MPA: mpa, GPA: gpa, EPA: epa,
		CIFab: grid.Intensity, WaferArea: waferArea,
	})
	return epa, breakdown, err
}
