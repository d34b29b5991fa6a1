// Package device implements a virtual-source (VS) FET compact model in the
// style of Khakifirooz et al. (paper reference [37]), parameterised for the
// three transistor families of the paper's M3D case study:
//
//   - 7 nm Si FinFETs (NMOS and PMOS, four ASAP7-style VT flavours),
//   - carbon-nanotube FETs (CNFETs, high I_EFF, metallic-CNT leakage),
//   - IGZO FETs (NMOS only, low mobility, ultra-low I_OFF).
//
// The VS model expresses drain current as the product of mobile charge at
// the virtual source, injection velocity, and a saturation function:
//
//	I_D = W · Q_ix0(V_GS, V_DS) · v_x0 · F_sat(V_DS)
//
// with the charge term smooth across the sub-threshold and strong-inversion
// regimes. This continuity makes it well suited to the Newton iterations of
// the transient simulator in internal/spice.
package device

import (
	"errors"
	"fmt"
	"math"
)

// ThermalVoltage is kT/q at 300 K, in volts.
const ThermalVoltage = 0.02585

// Polarity distinguishes N- and P-type FETs.
type Polarity int

// FET polarities.
const (
	NMOS Polarity = iota
	PMOS
)

// String implements fmt.Stringer.
func (p Polarity) String() string {
	if p == PMOS {
		return "PMOS"
	}
	return "NMOS"
}

// Params is the virtual-source parameter set of one FET family/flavour.
// All internal quantities are SI: volts, meters, farads per square meter,
// meters per second, amperes per meter of gate width.
type Params struct {
	// Name identifies the device ("Si NMOS RVT", "CNFET", "IGZO").
	Name string
	// Polarity is NMOS or PMOS.
	Polarity Polarity
	// VT0 is the threshold voltage magnitude at V_DS → 0, in volts.
	VT0 float64
	// DIBL is the drain-induced barrier lowering coefficient in V/V:
	// the effective threshold is VT0 − DIBL·|V_DS|.
	DIBL float64
	// SSmVdec is the sub-threshold swing in mV/decade at 300 K.
	SSmVdec float64
	// Vx0 is the virtual-source injection velocity in m/s.
	Vx0 float64
	// MuEff is the effective channel mobility in cm²/(V·s); together with
	// Lg it sets the saturation voltage of the F_sat function.
	MuEff float64
	// Lg is the gate length in meters.
	Lg float64
	// Cinv is the inversion capacitance per gate area in F/m².
	Cinv float64
	// CgPerWidth is the total switching gate capacitance per meter of
	// width (F/m), used for digital load estimates.
	CgPerWidth float64
	// Beta shapes the F_sat transition (typically ≈ 1.8 for FETs).
	Beta float64
	// LeakFloor is a gate-independent parasitic leakage per width (A/m)
	// added to the channel current — for CNFETs it models the residual
	// metallic-CNT population; zero elsewhere.
	LeakFloor float64
	// IOFFSpec, when nonzero, is an experimentally anchored off-state
	// leakage per width (A/m) at the hold bias, used by retention
	// calculations in place of evaluating the VS model far below
	// threshold (the paper anchors IGZO to < 3e-21 A/µm from Belmonte
	// et al., a regime where a fixed-SS exponential is not predictive).
	IOFFSpec float64
}

// Validate checks the parameter set for physical sanity.
func (p Params) Validate() error {
	switch {
	case p.VT0 <= 0:
		return fmt.Errorf("device %s: VT0 must be positive", p.Name)
	case p.SSmVdec < 40:
		// The thermal limit is 59.5 mV/dec at 300 K; the model keeps φt
		// fixed at 300 K and encodes temperature through SSmVdec (see
		// AtTemperature), so cold-corner parameter sets legitimately dip
		// below 59.5. 40 mV/dec (≈200 K) bounds the validity range.
		return fmt.Errorf("device %s: sub-threshold swing %.1f below model validity", p.Name, p.SSmVdec)
	case p.Vx0 <= 0 || p.MuEff <= 0 || p.Lg <= 0 || p.Cinv <= 0:
		return fmt.Errorf("device %s: transport parameters must be positive", p.Name)
	case p.Beta <= 0:
		return fmt.Errorf("device %s: beta must be positive", p.Name)
	case p.DIBL < 0 || p.LeakFloor < 0 || p.IOFFSpec < 0:
		return fmt.Errorf("device %s: DIBL and leakage terms must be non-negative", p.Name)
	}
	return nil
}

// n reports the ideality factor implied by the sub-threshold swing.
func (p Params) n() float64 {
	return p.SSmVdec * 1e-3 / (ThermalVoltage * math.Ln10)
}

// vdsat reports the saturation voltage of the F_sat function: the velocity-
// limited V_DSAT blended against the thermal floor so the function stays
// smooth in weak inversion.
func (p Params) vdsat() float64 {
	mu := p.MuEff * 1e-4 // cm²/Vs → m²/Vs
	v := p.Vx0 * p.Lg / mu
	floor := p.n() * ThermalVoltage
	if v < floor {
		return floor
	}
	return v
}

// vsBias is the gate-independent part of channelCurrent at one vds ≥ 0:
// the DIBL-shifted threshold, F_sat and the leakage-floor term. Every
// gate voltage evaluated at that vds shares them.
type vsBias struct {
	nphit, vt, fsat, leak float64
}

// bias evaluates the vsBias at vds, given the parameter set's n·φt and
// V_DSAT.
func (p *Params) bias(nphit, vdsat, vds float64) vsBias {
	// Saturation function.
	x := vds / vdsat
	return vsBias{
		nphit: nphit,
		vt:    p.VT0 - p.DIBL*vds,
		fsat:  x / math.Pow(1+math.Pow(x, p.Beta), 1/p.Beta),
		leak:  p.LeakFloor * math.Tanh(vds/ThermalVoltage),
	}
}

// current evaluates the VS model at vgs on a precomputed bias, returning
// current per meter of width (A/m).
func (p *Params) current(b *vsBias, vgs float64) float64 {
	// Smooth charge: Q = Cinv·n·φt·ln(1 + exp((Vgs − VT)/(n·φt))).
	arg := (vgs - b.vt) / b.nphit
	var q float64
	if arg > 40 {
		q = p.Cinv * b.nphit * arg
	} else {
		q = p.Cinv * b.nphit * math.Log1p(math.Exp(arg))
	}
	return q*p.Vx0*b.fsat + b.leak
}

// channelCurrent evaluates the VS model for an N-type device with
// vds ≥ 0, returning current per meter of width (A/m).
func (p Params) channelCurrent(vgs, vds float64) float64 {
	b := p.bias(p.n()*ThermalVoltage, p.vdsat(), vds)
	return p.current(&b, vgs)
}

// DrainCurrent reports the terminal drain current of a FET of width w
// (meters) at the given gate-source and drain-source voltages, in amperes.
// Polarity and source/drain symmetry (vds < 0 operation) are handled here,
// so circuit simulators can stamp the device without case analysis.
func (p Params) DrainCurrent(vgs, vds, w float64) float64 {
	nphit, vdsat := p.n()*ThermalVoltage, p.vdsat()
	if p.Polarity == PMOS {
		// A PMOS conducts with negative vgs/vds; evaluate the N-equivalent
		// with flipped signs and return the negated current.
		return -p.nTypeCurrent(nphit, vdsat, -vgs, -vds, w)
	}
	return p.nTypeCurrent(nphit, vdsat, vgs, vds, w)
}

// nTypeCurrent handles source/drain symmetry for an N-type evaluation.
func (p *Params) nTypeCurrent(nphit, vdsat, vgs, vds, w float64) float64 {
	b, shift, sw := p.orient(nphit, vdsat, vds, w)
	return sw * p.current(&b, vgs-shift)
}

// orient resolves source/drain symmetry for an N-type evaluation at vds:
// the current at gate voltage vgs is sw·current(b, vgs − shift). In
// reversed operation (vds < 0) the physical source is the terminal we
// called drain, so the channel sees −vds, the gate-to-(true source)
// voltage is vgd = vgs − vds, and the current flows the other way.
// Otherwise shift is +0, and vgs − (+0) is vgs exactly.
func (p *Params) orient(nphit, vdsat, vds, w float64) (b vsBias, shift, sw float64) {
	if vds >= 0 {
		return p.bias(nphit, vdsat, vds), 0, w
	}
	return p.bias(nphit, vdsat, -vds), vds, -w
}

// conductanceStep is the central-difference step (volts) behind gm and
// gds.
const conductanceStep = 1e-5

// Linearize reports what a Newton stamp needs at one bias point: the
// drain current id = DrainCurrent(vgs, vds, w), the transconductance
// gm = ∂I/∂Vgs and the output conductance gds = ∂I/∂Vds, the last two as
// central differences of DrainCurrent with a 10 µV step. The spice
// package stamps its FETs with it.
//
// The base current and both gm evaluations share one oriented vds, so
// they share its threshold shift, F_sat and leakage term, computed once;
// only the gds pair moves vds and evaluates the whole model. Each value
// carries the bits of the DrainCurrent calls it stands for: every
// expression keeps DrainCurrent's operands and order, a PMOS included
// (its N-equivalent at flipped signs, each current negated before it is
// differenced).
func (p *Params) Linearize(vgs, vds, w float64) (id, gm, gds float64) {
	const h = conductanceStep
	nphit, vdsat := p.n()*ThermalVoltage, p.vdsat()
	gate := [3]float64{vgs, vgs + h, vgs - h}
	drain := [3]float64{vds, vds + h, vds - h}
	if p.Polarity == PMOS {
		gate = [3]float64{-vgs, -(vgs + h), -(vgs - h)}
		drain = [3]float64{-vds, -(vds + h), -(vds - h)}
	}
	var i [5]float64 // at (vgs, vds), (vgs±h, vds), (vgs, vds±h)
	b, shift, sw := p.orient(nphit, vdsat, drain[0], w)
	for k, g := range gate {
		i[k] = sw * p.current(&b, g-shift)
	}
	i[3] = p.nTypeCurrent(nphit, vdsat, gate[0], drain[1], w)
	i[4] = p.nTypeCurrent(nphit, vdsat, gate[0], drain[2], w)
	if p.Polarity == PMOS {
		for k := range i {
			i[k] = -i[k]
		}
	}
	return i[0], (i[1] - i[2]) / (2 * h), (i[3] - i[4]) / (2 * h)
}

// ION reports the on-state current per width (A/m) at |Vgs| = |Vds| = vdd.
func (p Params) ION(vdd float64) float64 {
	return p.channelCurrent(vdd, vdd)
}

// IOFF reports the off-state current per width (A/m) at Vgs = 0,
// |Vds| = vdd, as modeled (including any metallic-CNT floor).
func (p Params) IOFF(vdd float64) float64 {
	return p.channelCurrent(0, vdd)
}

// IEFF reports the effective drive current per width (A/m) — the standard
// average of the high and low switching points:
//
//	I_EFF = (I_H + I_L)/2,  I_H = I(Vgs=vdd, Vds=vdd/2),  I_L = I(vdd/2, vdd).
func (p Params) IEFF(vdd float64) float64 {
	ih := p.channelCurrent(vdd, vdd/2)
	il := p.channelCurrent(vdd/2, vdd)
	return (ih + il) / 2
}

// HoldLeakage reports the per-width leakage used for retention analysis:
// the experimental IOFFSpec when provided, otherwise the modeled IOFF.
func (p Params) HoldLeakage(vdd float64) float64 {
	if p.IOFFSpec > 0 {
		return p.IOFFSpec
	}
	return p.IOFF(vdd)
}

// SubthresholdSwing numerically extracts the sub-threshold swing in
// mV/decade from the model around the deep sub-threshold point, as a
// consistency check against the SSmVdec parameter.
func (p Params) SubthresholdSwing(vdd float64) (float64, error) {
	v1 := p.VT0 * 0.3
	v2 := p.VT0 * 0.5
	i1 := p.channelCurrent(v1, vdd)
	i2 := p.channelCurrent(v2, vdd)
	if i1 <= 0 || i2 <= 0 || i1 == i2 {
		return 0, errors.New("device: cannot extract swing from non-positive currents")
	}
	decades := math.Log10(i2 / i1)
	return (v2 - v1) * 1e3 / decades, nil
}
