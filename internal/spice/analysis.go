package spice

import (
	"errors"
	"fmt"
	"math"
)

// Newton-iteration controls.
const (
	maxNewtonIters = 300
	vTolerance     = 1e-9
	maxStepVolts   = 0.25 // per-iteration voltage damping
	gmin           = 1e-12
)

// OP solves the DC operating point (capacitors open, sources at t = 0).
func (c *Circuit) OP() (*Operating, error) {
	n := c.unknowns()
	if n == 0 {
		return nil, errNoNodes
	}
	st := &stampState{x: make([]float64, n), xPrev: make([]float64, n), dcMode: true}
	if err := c.newton(st, newSystem(n)); err != nil {
		return nil, fmt.Errorf("spice: DC operating point: %w", err)
	}
	return &Operating{circuit: c, x: st.x}, nil
}

// Operating holds a solved DC operating point.
type Operating struct {
	circuit *Circuit
	x       []float64
}

// Voltage reports a node voltage at the operating point.
func (o *Operating) Voltage(node string) (float64, error) {
	idx, ok := o.circuit.nodeIndex[node]
	if !ok {
		return 0, fmt.Errorf("spice: unknown node %q", node)
	}
	if idx < 0 {
		return 0, nil
	}
	return o.x[idx], nil
}

// SourceCurrent reports the branch current of a voltage source: positive
// current flows from the + terminal through the source to the − terminal
// (so a battery delivering power reports a negative current).
func (o *Operating) SourceCurrent(id string) (float64, error) {
	for _, e := range o.circuit.elems {
		if vs, ok := e.(*vsource); ok && vs.id == id {
			return o.x[vs.brIdx], nil
		}
	}
	return 0, fmt.Errorf("spice: unknown voltage source %q", id)
}

// newton runs damped Newton-Raphson until the voltage update converges.
// Two dampers keep the iteration stable: a hard per-step voltage clamp,
// and an anti-ringing limiter that halves a node's step whenever its
// update direction flips — this breaks the limit cycles that exponential
// device characteristics otherwise sustain under fixed clamping. sys is
// the analysis's reusable MNA system; each call starts with a fresh
// damper history.
func (c *Circuit) newton(st *stampState, sys *system) error {
	prev := sys.prev
	clear(prev)
	for iter := 0; iter < maxNewtonIters; iter++ {
		sys.reset()
		// gmin to ground keeps floating gate nodes well-posed.
		for i := 0; i < len(c.nodeNames); i++ {
			sys.addG(i, i, gmin)
		}
		for _, e := range c.elems {
			e.stamp(sys, st)
		}
		if err := sys.solve(); err != nil {
			return err
		}
		xNew := sys.x
		var maxDelta float64
		for i := range xNew {
			d := xNew[i] - st.x[i]
			if i < len(c.nodeNames) {
				// Damp node voltages only; branch currents update freely.
				if d > maxStepVolts {
					d = maxStepVolts
				} else if d < -maxStepVolts {
					d = -maxStepVolts
				}
				if d*prev[i] < 0 {
					// Direction flip: limit to half the previous step.
					if lim := math.Abs(prev[i]) / 2; math.Abs(d) > lim {
						d = math.Copysign(lim, d)
					}
				}
				prev[i] = d
			}
			st.x[i] += d
			if a := math.Abs(d); a > maxDelta && i < len(c.nodeNames) {
				maxDelta = a
			}
		}
		if maxDelta < vTolerance {
			return nil
		}
	}
	return errors.New("newton iteration did not converge")
}

// Tran holds a transient simulation result: node voltages and voltage-
// source branch currents sampled at every accepted time point.
type Tran struct {
	circuit *Circuit
	// Times are the sample instants, starting at 0.
	Times []float64
	// nodeV[i] is the waveform of node index i.
	nodeV [][]float64
	// srcI maps source id → branch current waveform.
	srcI map[string][]float64
}

// Transient runs a fixed-step backward-Euler transient analysis from a DC
// operating point at t = 0 to tstop. Backward Euler is L-stable, which the
// stiff bit-cell retention circuits (attofarad storage nodes against
// sub-femtoampere leakages) require.
func (c *Circuit) Transient(tstop, dt float64) (*Tran, error) {
	return c.transient(tstop, dt, false, nil)
}

// TransientToCrossing runs Transient(tstop, dt) but stops after the first
// sample that completes the crossing CrossingTime(node, threshold,
// rising, tStart) looks for; the same predicate decides both. Each
// backward-Euler sample depends only on the samples before it, so the
// result holds the full run's samples up to that one, and its
// CrossingTime returns the full run's value bit for bit. A node that
// never crosses (ground, or an unknown name, included) runs the whole
// window, and CrossingTime reports the full run's error. The one outcome
// that differs from Transient: a Newton failure after the crossing goes
// unseen, since those steps never run.
func (c *Circuit) TransientToCrossing(tstop, dt float64, node string, threshold float64, rising bool, tStart float64) (*Tran, error) {
	idx, ok := c.nodeIndex[node]
	if !ok || idx < 0 {
		return c.transient(tstop, dt, false, nil)
	}
	return c.transient(tstop, dt, false, func(tr *Tran) bool {
		return tr.crossed(tr.nodeV[idx], len(tr.Times)-1, threshold, rising, tStart)
	})
}

// TransientFromZero runs the same analysis but skips the initial
// operating-point solve and starts from all-zero node voltages — SPICE's
// "use initial conditions" mode. Needed when the DC point is irrelevant or
// ill-conditioned (e.g. a current source charging a capacitor).
func (c *Circuit) TransientFromZero(tstop, dt float64) (*Tran, error) {
	return c.transient(tstop, dt, true, nil)
}

// transient runs the analysis; a non-nil stop is asked after each
// recorded sample past t = 0 and ends the run when it returns true.
func (c *Circuit) transient(tstop, dt float64, uic bool, stop func(*Tran) bool) (*Tran, error) {
	if tstop <= 0 || dt <= 0 || dt > tstop {
		return nil, errors.New("spice: need 0 < dt ≤ tstop")
	}
	n := c.unknowns()
	if n == 0 {
		return nil, errNoNodes
	}
	// Initial condition: DC operating point with sources at t = 0, unless
	// the caller asked for a zero start.
	sys := newSystem(n)
	st := &stampState{x: make([]float64, n), xPrev: make([]float64, n), dcMode: true, t: 0}
	if !uic {
		if err := c.newton(st, sys); err != nil {
			return nil, fmt.Errorf("spice: transient initial OP: %w", err)
		}
	}
	st.dcMode = false
	st.dt = dt

	steps := int(math.Ceil(tstop/dt)) + 1
	tr := &Tran{
		circuit: c,
		Times:   make([]float64, 0, steps),
		nodeV:   make([][]float64, len(c.nodeNames)),
		srcI:    make(map[string][]float64, len(c.vsrcNames)),
	}
	record := func(t float64) {
		tr.Times = append(tr.Times, t)
		for i := range c.nodeNames {
			tr.nodeV[i] = append(tr.nodeV[i], st.x[i])
		}
		for _, e := range c.elems {
			if vs, ok := e.(*vsource); ok {
				tr.srcI[vs.id] = append(tr.srcI[vs.id], st.x[vs.brIdx])
			}
		}
	}
	record(0)

	for t := dt; t <= tstop+dt/2; t += dt {
		copy(st.xPrev, st.x)
		st.t = t
		if err := c.newton(st, sys); err != nil {
			return nil, fmt.Errorf("spice: transient at t=%.3g s: %w", t, err)
		}
		record(t)
		if stop != nil && stop(tr) {
			break
		}
	}
	return tr, nil
}

// Voltage returns the waveform of a node.
func (tr *Tran) Voltage(node string) ([]float64, error) {
	idx, ok := tr.circuit.nodeIndex[node]
	if !ok {
		return nil, fmt.Errorf("spice: unknown node %q", node)
	}
	if idx < 0 {
		return make([]float64, len(tr.Times)), nil
	}
	return tr.nodeV[idx], nil
}

// At samples a node voltage at time t by linear interpolation.
func (tr *Tran) At(node string, t float64) (float64, error) {
	w, err := tr.Voltage(node)
	if err != nil {
		return 0, err
	}
	if len(tr.Times) == 0 {
		return 0, errors.New("spice: empty transient result")
	}
	if t <= tr.Times[0] {
		return w[0], nil
	}
	last := len(tr.Times) - 1
	if t >= tr.Times[last] {
		return w[last], nil
	}
	// Uniform grid: index directly.
	dt := tr.Times[1] - tr.Times[0]
	i := int(t / dt)
	if i >= last {
		i = last - 1
	}
	f := (t - tr.Times[i]) / dt
	return w[i] + f*(w[i+1]-w[i]), nil
}

// SourceCurrent returns the branch-current waveform of a voltage source.
func (tr *Tran) SourceCurrent(id string) ([]float64, error) {
	w, ok := tr.srcI[id]
	if !ok {
		return nil, fmt.Errorf("spice: unknown voltage source %q", id)
	}
	return w, nil
}

// SourceEnergy integrates the energy delivered by a voltage source over the
// run (trapezoidal rule). Positive values mean the source delivered energy
// to the circuit.
func (tr *Tran) SourceEnergy(id string) (float64, error) {
	i, err := tr.SourceCurrent(id)
	if err != nil {
		return 0, err
	}
	src := tr.sourceByID(id)
	var e float64
	for k := 1; k < len(tr.Times); k++ {
		dt := tr.Times[k] - tr.Times[k-1]
		// Delivered power = −V·I with branch current measured + → −.
		p0 := -src.wave.V(tr.Times[k-1]) * i[k-1]
		p1 := -src.wave.V(tr.Times[k]) * i[k]
		e += dt * (p0 + p1) / 2
	}
	return e, nil
}

func (tr *Tran) sourceByID(id string) *vsource {
	for _, e := range tr.circuit.elems {
		if vs, ok := e.(*vsource); ok && vs.id == id {
			return vs
		}
	}
	return nil
}

// CrossingTime reports the first time after tStart at which the node
// crosses the threshold in the given direction (rising when rising=true).
func (tr *Tran) CrossingTime(node string, threshold float64, rising bool, tStart float64) (float64, error) {
	w, err := tr.Voltage(node)
	if err != nil {
		return 0, err
	}
	for k := 1; k < len(tr.Times); k++ {
		if tr.crossed(w, k, threshold, rising, tStart) {
			a, b := w[k-1], w[k]
			f := (threshold - a) / (b - a)
			return tr.Times[k-1] + f*(tr.Times[k]-tr.Times[k-1]), nil
		}
	}
	return 0, fmt.Errorf("spice: node %q never crossed %.3g V after t=%.3g", node, threshold, tStart)
}

// crossed reports whether waveform w completes the crossing between
// samples k−1 and k, with sample k at or after tStart: the one predicate
// behind CrossingTime and TransientToCrossing.
func (tr *Tran) crossed(w []float64, k int, threshold float64, rising bool, tStart float64) bool {
	if tr.Times[k] < tStart {
		return false
	}
	a, b := w[k-1], w[k]
	return (rising && a < threshold && b >= threshold) ||
		(!rising && a > threshold && b <= threshold)
}
