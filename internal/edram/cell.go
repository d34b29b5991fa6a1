// Package edram models the paper's 3-transistor (3T) gain-cell eDRAM
// (Fig. 3): one write transistor charges the storage node (SN) from the
// write bitline when the write wordline is asserted, and a two-transistor
// read stack (storage transistor gated by SN, select transistor gated by
// the read wordline) discharges the read bitline when a '1' is stored.
//
// Two implementations are characterized, mirroring Fig. 1:
//
//   - the all-Si cell, with Si FinFETs throughout — fast writes but
//     FinFET-leakage-limited retention, so the array needs refresh;
//   - the M3D cell, with an IGZO write transistor (ultra-low I_OFF →
//     > 1000 s retention, no refresh in practice) and CNFET read stack
//     (high I_EFF → fast reads), fabricated above the Si periphery.
//
// Cell dynamics (write charging, read discharge, retention droop) are
// validated with the internal/spice simulator using the internal/device
// compact models; array-level energy and latency are assembled in
// memory.go following standard memory-compiler practice.
package edram

import (
	"errors"
	"fmt"

	"ppatc/internal/device"
	"ppatc/internal/spice"
	"ppatc/internal/units"
)

// CellDesign describes one 3T bit-cell implementation.
type CellDesign struct {
	// Name identifies the design ("all-Si 3T", "M3D IGZO/CNFET 3T").
	Name string
	// Write is the write-access transistor (M1 in Fig. 3a).
	Write device.Params
	// Storage is the storage transistor whose gate is the SN (M2).
	Storage device.Params
	// Select is the read-select transistor (M3).
	Select device.Params
	// WriteW, StorageW, SelectW are the transistor widths in meters.
	WriteW, StorageW, SelectW float64
	// SNCap is the storage-node capacitance in farads (gate of M2 plus
	// parasitics).
	SNCap float64
	// CellWidth and CellHeight are the bit-cell footprint dimensions.
	CellWidth, CellHeight units.Length
	// VDD is the cell supply; VWWL is the boosted write-wordline level.
	VDD, VWWL float64
	// StackedOverPeriphery is true when the cell transistors sit in the
	// BEOL above the peripheral circuits (the M3D case), so the array
	// claims no extra footprint for periphery.
	StackedOverPeriphery bool
	// SenseMargin is the SN droop (volts) at which a stored '1' is no
	// longer reliably read; it sets retention time.
	SenseMargin float64
}

// Validate checks the design.
func (d CellDesign) Validate() error {
	switch {
	case d.WriteW <= 0 || d.StorageW <= 0 || d.SelectW <= 0:
		return fmt.Errorf("edram %s: transistor widths must be positive", d.Name)
	case d.SNCap <= 0:
		return fmt.Errorf("edram %s: storage capacitance must be positive", d.Name)
	case d.CellWidth <= 0 || d.CellHeight <= 0:
		return fmt.Errorf("edram %s: cell dimensions must be positive", d.Name)
	case d.VDD <= 0 || d.VWWL < d.VDD:
		return fmt.Errorf("edram %s: need VWWL ≥ VDD > 0", d.Name)
	case d.SenseMargin <= 0 || d.SenseMargin >= d.VDD:
		return fmt.Errorf("edram %s: sense margin must be in (0, VDD)", d.Name)
	}
	for _, p := range []device.Params{d.Write, d.Storage, d.Select} {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("edram %s: %w", d.Name, err)
		}
	}
	return nil
}

// CellArea reports the bit-cell footprint.
func (d CellDesign) CellArea() units.Area {
	return d.CellWidth.TimesLength(d.CellHeight)
}

// SiCellDesign returns the all-Si 3T cell. The write device uses the HVT
// flavour to stretch retention (the standard gain-cell design choice); the
// read stack uses RVT for speed. Dimensions are sized so a 64 kB memory
// lands at the paper's 0.068 mm² footprint (Table II) including periphery.
func SiCellDesign() CellDesign {
	return CellDesign{
		Name:     "all-Si 3T",
		Write:    device.SiNFET(device.HVT),
		Storage:  device.SiNFET(device.RVT),
		Select:   device.SiNFET(device.RVT),
		WriteW:   20e-9,
		StorageW: 30e-9,
		SelectW:  30e-9,
		// The Si cell needs an explicit MOS storage capacitor to survive
		// FinFET leakage long enough for a practical refresh rate; the
		// extra capacitor is part of why the Si cell is larger.
		SNCap:      1.60e-15,
		CellWidth:  units.Micrometers(0.28),
		CellHeight: units.Micrometers(0.40),
		VDD:        device.VDD,
		// The NMOS access device cannot pass a full '1' without gate
		// boost (SN stalls at VWWL − VT), so the Si wordline is boosted
		// too — standard gain-cell practice, smaller boost than M3D's.
		VWWL:        1.2,
		SenseMargin: 0.10,
	}
}

// M3DCellDesign returns the IGZO/CNFET 3T cell of the paper: IGZO write
// transistor driven by a boosted 1.3 V write wordline (to overcome its low
// mobility), CNFET read stack, fabricated over the Si periphery. The
// smaller footprint reflects the stacked geometry and sizes a 64 kB memory
// at the paper's 0.025 mm² (Table II).
func M3DCellDesign() CellDesign {
	return CellDesign{
		Name:    "M3D IGZO/CNFET 3T",
		Write:   device.IGZO(),
		Storage: device.CNFET(),
		Select:  device.CNFET(),
		// The IGZO write device is the widest in the cell: even with the
		// boosted wordline its low mobility makes the write the critical
		// edge, and the width buys it back under the 2 ns cycle.
		WriteW:               80e-9,
		StorageW:             30e-9,
		SelectW:              30e-9,
		SNCap:                0.30e-15,
		CellWidth:            units.Micrometers(0.20),
		CellHeight:           units.Micrometers(0.24),
		VDD:                  device.VDD,
		VWWL:                 device.WriteWordlineVoltage,
		StackedOverPeriphery: true,
		SenseMargin:          0.10,
	}
}

// AtTemperature derives the cell design at a junction temperature (°C),
// re-deriving all three device parameter sets. Retention is the quantity
// that moves: Si gain cells lose roughly an order of magnitude of hold
// time from 25 °C to 85 °C, while the IGZO cell's anchored leakage keeps
// it refresh-free across the industrial range.
func (d CellDesign) AtTemperature(tempC float64) CellDesign {
	out := d
	out.Name = fmt.Sprintf("%s @ %g°C", d.Name, tempC)
	out.Write = d.Write.AtTemperature(tempC)
	out.Storage = d.Storage.AtTemperature(tempC)
	out.Select = d.Select.AtTemperature(tempC)
	return out
}

// CellTiming is the SPICE-characterized dynamic behaviour of one cell.
type CellTiming struct {
	// WriteDelay is the time for the SN to charge to VDD − SenseMargin
	// through the write transistor, in seconds.
	WriteDelay float64
	// ReadDelay is the time for the read stack to discharge the given
	// bitline capacitance by the sense margin, in seconds.
	ReadDelay float64
	// Retention is the hold time before the SN droops by the sense
	// margin, in seconds (analytic: C·ΔV / I_hold).
	Retention float64
	// WriteEnergy is the energy drawn from the write bitline and boosted
	// wordline supplies for one cell write, in joules.
	WriteEnergy float64
}

// CharacterizeCell runs the cell's write and read transients and the
// retention analysis. blCap is the read-bitline capacitance the cell must
// discharge (from the array geometry).
func CharacterizeCell(d CellDesign, blCap float64) (CellTiming, error) {
	if err := d.Validate(); err != nil {
		return CellTiming{}, err
	}
	if blCap <= 0 {
		return CellTiming{}, errors.New("edram: bitline capacitance must be positive")
	}
	var tm CellTiming

	wd, we, err := writeTransient(d)
	if err != nil {
		return CellTiming{}, fmt.Errorf("edram %s write: %w", d.Name, err)
	}
	tm.WriteDelay, tm.WriteEnergy = wd, we

	rd, err := readTransient(d, blCap)
	if err != nil {
		return CellTiming{}, fmt.Errorf("edram %s read: %w", d.Name, err)
	}
	tm.ReadDelay = rd

	// Retention: the SN droops through the write transistor's hold-state
	// leakage. This is analytic because the time scales (µs for Si,
	// >10⁵ s for IGZO) dwarf any practical transient step.
	iHold := d.Write.HoldLeakage(d.VDD) * d.WriteW
	if iHold <= 0 {
		return CellTiming{}, errors.New("edram: hold leakage must be positive")
	}
	tm.Retention = d.SNCap * d.SenseMargin / iHold
	return tm, nil
}

// writeTransient simulates charging the SN to '1' through the write
// transistor with the boosted wordline, reporting the delay to reach
// VDD − SenseMargin and the energy drawn from the sources.
func writeTransient(d CellDesign) (delay, energy float64, err error) {
	ck := spice.NewCircuit()
	rise := 20e-12
	// Write bitline at VDD, wordline pulses to VWWL.
	if err := ck.AddV("vwbl", "wbl", spice.Ground, spice.DC(d.VDD)); err != nil {
		return 0, 0, err
	}
	wwl := spice.Pulse{V1: 0, V2: d.VWWL, Delay: 50e-12, Rise: rise, Width: 10e-9, Fall: rise}
	if err := ck.AddV("vwwl", "wwl", spice.Ground, wwl); err != nil {
		return 0, 0, err
	}
	// Write FET: drain = WBL, gate = WWL, source = SN.
	if err := ck.AddFET("mw", "wbl", "wwl", "sn", d.Write, d.WriteW); err != nil {
		return 0, 0, err
	}
	if err := ck.AddC("csn", "sn", spice.Ground, d.SNCap); err != nil {
		return 0, 0, err
	}
	// Choose the step from the expected charging time scale.
	iOn := d.Write.DrainCurrent(d.VWWL, d.VDD, d.WriteW)
	tScale := d.SNCap * d.VDD / iOn
	dt := clamp(tScale/400, 1e-13, 5e-12)
	tstop := 50e-12 + 10*tScale
	if tstop > 10e-9 {
		tstop = 10e-9
	}
	tr, err := ck.TransientFromZero(tstop, dt)
	if err != nil {
		return 0, 0, err
	}
	target := d.VDD - d.SenseMargin
	tc, err := tr.CrossingTime("sn", target, true, 50e-12)
	if err != nil {
		return 0, 0, fmt.Errorf("SN never reached %.2f V: %w", target, err)
	}
	eWBL, err := tr.SourceEnergy("vwbl")
	if err != nil {
		return 0, 0, err
	}
	eWWL, err := tr.SourceEnergy("vwwl")
	if err != nil {
		return 0, 0, err
	}
	return tc - 50e-12, eWBL + eWWL, nil
}

// readTransient simulates the read stack discharging a precharged bitline
// with a stored '1', reporting the delay for the bitline to droop by the
// sense margin. Only that first crossing is read back, so the transient
// stops at the sample that completes it (spice's TransientToCrossing;
// the delay is bit-identical to the full window's). The window, 12 time
// scales long, still bounds a cell that never droops. writeTransient
// keeps its full window: its energy integrates the whole run.
func readTransient(d CellDesign, blCap float64) (float64, error) {
	ck, tstop, dt, err := readCircuit(d, blCap)
	if err != nil {
		return 0, err
	}
	target := d.VDD - d.SenseMargin
	tr, err := ck.TransientToCrossing(tstop, dt, "rbl", target, false, readStart)
	if err != nil {
		return 0, err
	}
	tc, err := tr.CrossingTime("rbl", target, false, readStart)
	if err != nil {
		return 0, fmt.Errorf("RBL never drooped to %.2f V: %w", target, err)
	}
	return tc - readStart, nil
}

// readStart is when the read wordline starts to rise (s).
const readStart = 50e-12

// readCircuit builds the read testbench of readTransient: the read stack
// on a precharged bitline of capacitance blCap, with the transient's stop
// time and step.
func readCircuit(d CellDesign, blCap float64) (ck *spice.Circuit, tstop, dt float64, err error) {
	// Time scale from the read stack's drive; weak-read cells (all-IGZO
	// topologies) need microseconds, so the wordline stays asserted for
	// the whole window.
	iRead := d.Storage.IEFF(d.VDD) * d.StorageW
	tScale := blCap * d.SenseMargin / iRead
	dt = clamp(tScale/300, 1e-13, 50e-12)
	tstop = readStart + 12*tScale

	ck = spice.NewCircuit()
	// SN held at VDD by an ideal source (stored '1'); RWL pulses high.
	if err := ck.AddV("vsn", "sn", spice.Ground, spice.DC(d.VDD)); err != nil {
		return nil, 0, 0, err
	}
	rwl := spice.Pulse{V1: 0, V2: d.VDD, Delay: readStart, Rise: 20e-12, Width: tstop, Fall: 20e-12}
	if err := ck.AddV("vrwl", "rwl", spice.Ground, rwl); err != nil {
		return nil, 0, 0, err
	}
	// Precharge PMOS holds RBL at VDD while its gate is low, then turns
	// off at 30 ps — before the read wordline rises at 50 ps — exactly how
	// the array's precharge devices behave.
	if err := ck.AddV("vdd", "vdd", spice.Ground, spice.DC(d.VDD)); err != nil {
		return nil, 0, 0, err
	}
	preGate := spice.Pulse{V1: 0, V2: d.VDD, Delay: 30e-12, Rise: 10e-12, Width: 1, Fall: 10e-12}
	if err := ck.AddV("vpre", "preb", spice.Ground, preGate); err != nil {
		return nil, 0, 0, err
	}
	if err := ck.AddFET("mpre", "rbl", "preb", "vdd", device.SiPFET(device.RVT), 200e-9); err != nil {
		return nil, 0, 0, err
	}
	if err := ck.AddC("cbl", "rbl", spice.Ground, blCap); err != nil {
		return nil, 0, 0, err
	}
	// Read stack: RBL → select FET → mid → storage FET → gnd.
	if err := ck.AddFET("msel", "rbl", "rwl", "mid", d.Select, d.SelectW); err != nil {
		return nil, 0, 0, err
	}
	if err := ck.AddFET("msto", "mid", "sn", spice.Ground, d.Storage, d.StorageW); err != nil {
		return nil, 0, 0, err
	}
	return ck, tstop, dt, nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
