package spice

import (
	"errors"
	"fmt"
)

// Sweep holds a DC sweep result: one operating point per source value.
type Sweep struct {
	circuit *Circuit
	// Values are the swept source values.
	Values []float64
	// points[i] is the solution vector at Values[i].
	points [][]float64
}

// DCSweep solves the operating point for each value of the named voltage
// source, warm-starting each solve from the previous point so the sweep
// follows a continuous branch of the DC solution — the standard way to
// trace a voltage transfer characteristic.
func (c *Circuit) DCSweep(sourceID string, values []float64) (*Sweep, error) {
	if len(values) == 0 {
		return nil, errors.New("spice: sweep needs at least one value")
	}
	var src *vsource
	for _, e := range c.elems {
		if vs, ok := e.(*vsource); ok && vs.id == sourceID {
			src = vs
			break
		}
	}
	if src == nil {
		return nil, fmt.Errorf("spice: unknown voltage source %q", sourceID)
	}
	n := c.unknowns()
	if n == 0 {
		return nil, errNoNodes
	}
	saved := src.wave
	defer func() { src.wave = saved }()

	sw := &Sweep{circuit: c, Values: append([]float64{}, values...)}
	st := &stampState{x: make([]float64, n), xPrev: make([]float64, n), dcMode: true}
	sys := newSystem(n)
	for i, v := range values {
		src.wave = DC(v)
		if err := c.newton(st, sys); err != nil {
			return nil, fmt.Errorf("spice: sweep point %d (%.4g V): %w", i, v, err)
		}
		pt := make([]float64, n)
		copy(pt, st.x)
		sw.points = append(sw.points, pt)
	}
	return sw, nil
}

// Voltage returns the swept node voltage trace.
func (s *Sweep) Voltage(node string) ([]float64, error) {
	idx, ok := s.circuit.nodeIndex[node]
	if !ok {
		return nil, fmt.Errorf("spice: unknown node %q", node)
	}
	out := make([]float64, len(s.points))
	if idx < 0 {
		return out, nil
	}
	for i, pt := range s.points {
		out[i] = pt[idx]
	}
	return out, nil
}

// SwitchingThreshold reports the input value at which the node crosses
// target (linear interpolation between sweep points), for VTC analysis.
func (s *Sweep) SwitchingThreshold(node string, target float64) (float64, error) {
	v, err := s.Voltage(node)
	if err != nil {
		return 0, err
	}
	for i := 1; i < len(v); i++ {
		a, b := v[i-1], v[i]
		if (a-target)*(b-target) <= 0 && a != b {
			f := (target - a) / (b - a)
			return s.Values[i-1] + f*(s.Values[i]-s.Values[i-1]), nil
		}
	}
	return 0, fmt.Errorf("spice: node %q never crosses %.3g in sweep", node, target)
}

// MaxAbsGain reports the largest |dVout/dVin| along the sweep — the VTC
// gain, which must exceed 1 for restoring logic.
func (s *Sweep) MaxAbsGain(node string) (float64, error) {
	v, err := s.Voltage(node)
	if err != nil {
		return 0, err
	}
	var g float64
	for i := 1; i < len(v); i++ {
		dx := s.Values[i] - s.Values[i-1]
		if dx == 0 {
			continue
		}
		if a := abs((v[i] - v[i-1]) / dx); a > g {
			g = a
		}
	}
	return g, nil
}
