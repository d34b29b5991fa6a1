// Package spice is a compact circuit simulator used to validate the eDRAM
// bit-cell and peripheral timing of the paper's case study (Sec. III-B,
// Step 2: "We validate timing using SPICE circuit simulations, with compact
// device models for Si CMOS, CNFETs, and IGZO FETs").
//
// It implements modified nodal analysis (MNA) with Newton-Raphson for the
// nonlinear FETs of internal/device, a DC operating-point solver, and a
// fixed-step backward-Euler transient solver with per-source energy
// accounting. The circuits the paper simulates — bit cells, wordline and
// bitline RC networks, write drivers, sense amplifiers — involve tens of
// nodes, so a dense LU solve is the right tool. Each FET stamp takes its
// current and both conductances from one device.Params.Linearize call.
//
// A transient that is read back only at a threshold crossing can stop
// there: TransientToCrossing ends the run at the first sample that
// completes the crossing, with the same predicate as Tran.CrossingTime.
// Backward Euler makes each sample depend only on the ones before it, so
// the crossing time is the full run's, bit for bit.
package spice

import (
	"errors"
	"fmt"

	"ppatc/internal/device"
)

// Ground is the reference node name; "0" is accepted as an alias.
const Ground = "gnd"

// Circuit is a netlist under construction. The zero value is not usable;
// call NewCircuit.
type Circuit struct {
	nodeIndex map[string]int // node name → matrix index; ground = -1
	nodeNames []string
	elems     []element
	vsrcNames []string
}

// NewCircuit returns an empty netlist.
func NewCircuit() *Circuit {
	return &Circuit{nodeIndex: map[string]int{Ground: -1, "0": -1}}
}

// Node interns a node name and returns its index (−1 for ground).
func (c *Circuit) Node(name string) int {
	if idx, ok := c.nodeIndex[name]; ok {
		return idx
	}
	idx := len(c.nodeNames)
	c.nodeIndex[name] = idx
	c.nodeNames = append(c.nodeNames, name)
	return idx
}

// Nodes reports the non-ground node names in index order.
func (c *Circuit) Nodes() []string {
	out := make([]string, len(c.nodeNames))
	copy(out, c.nodeNames)
	return out
}

// element is a circuit element able to stamp itself into the MNA system.
type element interface {
	// stamp adds the element's contribution at the given solution guess x
	// and time step state.
	stamp(sys *system, st *stampState)
}

// stampState carries the solver context elements may need.
type stampState struct {
	x      []float64 // current Newton guess (nodes then branch currents)
	xPrev  []float64 // solution at the previous accepted time point
	dt     float64   // current time step; 0 during DC analysis
	t      float64   // time at the point being solved
	dcMode bool      // true during operating-point analysis
}

// v reads a node voltage from the guess (ground = 0).
func (st *stampState) v(n int) float64 {
	if n < 0 {
		return 0
	}
	return st.x[n]
}

// vPrev reads a node voltage from the previous time point.
func (st *stampState) vPrev(n int) float64 {
	if n < 0 {
		return 0
	}
	return st.xPrev[n]
}

// system is the linearized MNA system G·x = b together with the Newton
// buffers. An analysis allocates one and reuses it across every Newton
// iteration and time step.
type system struct {
	n    int
	g    []float64 // n×n, row-major
	b    []float64
	x    []float64 // solution of the last solve
	prev []float64 // last damped step per node (Newton's anti-ringing limiter)
}

func newSystem(n int) *system {
	return &system{
		n:    n,
		g:    make([]float64, n*n),
		b:    make([]float64, n),
		x:    make([]float64, n),
		prev: make([]float64, n),
	}
}

func (s *system) reset() {
	clear(s.g)
	clear(s.b)
}

// addG accumulates a conductance entry, skipping ground rows/columns.
func (s *system) addG(i, j int, v float64) {
	if i < 0 || j < 0 {
		return
	}
	s.g[i*s.n+j] += v
}

// addB accumulates a RHS entry, skipping ground.
func (s *system) addB(i int, v float64) {
	if i < 0 {
		return
	}
	s.b[i] += v
}

// solve performs in-place Gaussian elimination with partial pivoting into
// s.x. The matrix and RHS are destroyed.
func (s *system) solve() error {
	n, g := s.n, s.g
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		max := abs(g[col*n+col])
		for r := col + 1; r < n; r++ {
			if a := abs(g[r*n+col]); a > max {
				max, p = a, r
			}
		}
		if max < 1e-300 {
			return fmt.Errorf("spice: singular matrix at column %d", col)
		}
		if p != col {
			rc, rp := g[col*n:(col+1)*n], g[p*n:(p+1)*n]
			for k := range rc {
				rc[k], rp[k] = rp[k], rc[k]
			}
			s.b[col], s.b[p] = s.b[p], s.b[col]
		}
		pivot := g[col*n : (col+1)*n]
		inv := 1 / pivot[col]
		for r := col + 1; r < n; r++ {
			row := g[r*n : (r+1)*n]
			f := row[col] * inv
			if f == 0 {
				continue
			}
			row[col] = 0
			for k := col + 1; k < n; k++ {
				row[k] -= f * pivot[k]
			}
			s.b[r] -= f * s.b[col]
		}
	}
	x := s.x
	for r := n - 1; r >= 0; r-- {
		row := g[r*n : (r+1)*n]
		sum := s.b[r]
		for k := r + 1; k < n; k++ {
			sum -= row[k] * x[k]
		}
		x[r] = sum / row[r]
	}
	return nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// --- Elements -------------------------------------------------------------

type resistor struct {
	n1, n2 int
	r      float64
}

func (r *resistor) stamp(sys *system, st *stampState) {
	g := 1 / r.r
	sys.addG(r.n1, r.n1, g)
	sys.addG(r.n2, r.n2, g)
	sys.addG(r.n1, r.n2, -g)
	sys.addG(r.n2, r.n1, -g)
}

type capacitor struct {
	n1, n2 int
	c      float64
}

func (c *capacitor) stamp(sys *system, st *stampState) {
	if st.dcMode || st.dt == 0 {
		return // open circuit in DC
	}
	// Backward-Euler companion: i = (C/dt)·v − (C/dt)·v_prev.
	g := c.c / st.dt
	vp := st.vPrev(c.n1) - st.vPrev(c.n2)
	sys.addG(c.n1, c.n1, g)
	sys.addG(c.n2, c.n2, g)
	sys.addG(c.n1, c.n2, -g)
	sys.addG(c.n2, c.n1, -g)
	sys.addB(c.n1, g*vp)
	sys.addB(c.n2, -g*vp)
}

// vsource is a voltage source with an MNA branch-current unknown.
type vsource struct {
	id       string
	np, nn   int
	wave     Waveform
	brIdx    int // branch current index within the full unknown vector
	brOffset int // set by the circuit when assembling
}

func (v *vsource) stamp(sys *system, st *stampState) {
	k := v.brIdx
	sys.addG(v.np, k, 1)
	sys.addG(v.nn, k, -1)
	sys.addG(k, v.np, 1)
	sys.addG(k, v.nn, -1)
	sys.addB(k, v.wave.V(st.t))
}

type isource struct {
	np, nn int
	wave   Waveform
}

func (i *isource) stamp(sys *system, st *stampState) {
	cur := i.wave.V(st.t)
	// Current flows from np through the source to nn (into the circuit at nn).
	sys.addB(i.np, -cur)
	sys.addB(i.nn, cur)
}

// fet is a nonlinear FET linearized around the current Newton guess.
type fet struct {
	d, g, s int
	params  device.Params
	w       float64
}

func (f *fet) stamp(sys *system, st *stampState) {
	vgs := st.v(f.g) - st.v(f.s)
	vds := st.v(f.d) - st.v(f.s)
	id, gm, gds := f.params.Linearize(vgs, vds, f.w)
	// Keep the linearization passive enough to converge.
	if gds < 1e-12 {
		gds = 1e-12
	}
	ieq := id - gm*vgs - gds*vds
	sys.addG(f.d, f.g, gm)
	sys.addG(f.d, f.d, gds)
	sys.addG(f.d, f.s, -(gm + gds))
	sys.addG(f.s, f.g, -gm)
	sys.addG(f.s, f.d, -gds)
	sys.addG(f.s, f.s, gm+gds)
	sys.addB(f.d, -ieq)
	sys.addB(f.s, ieq)
}

// --- Netlist construction --------------------------------------------------

// AddR adds a resistor between two named nodes.
func (c *Circuit) AddR(id, n1, n2 string, ohms float64) error {
	if ohms <= 0 {
		return fmt.Errorf("spice: resistor %s must have positive resistance", id)
	}
	c.elems = append(c.elems, &resistor{n1: c.Node(n1), n2: c.Node(n2), r: ohms})
	return nil
}

// AddC adds a capacitor between two named nodes.
func (c *Circuit) AddC(id, n1, n2 string, farads float64) error {
	if farads <= 0 {
		return fmt.Errorf("spice: capacitor %s must have positive capacitance", id)
	}
	c.elems = append(c.elems, &capacitor{n1: c.Node(n1), n2: c.Node(n2), c: farads})
	return nil
}

// AddV adds a voltage source from np (positive) to nn.
func (c *Circuit) AddV(id, np, nn string, w Waveform) error {
	if w == nil {
		return fmt.Errorf("spice: source %s needs a waveform", id)
	}
	c.elems = append(c.elems, &vsource{id: id, np: c.Node(np), nn: c.Node(nn), wave: w})
	c.vsrcNames = append(c.vsrcNames, id)
	return nil
}

// AddI adds a current source pushing current from np through itself to nn.
func (c *Circuit) AddI(id, np, nn string, w Waveform) error {
	if w == nil {
		return fmt.Errorf("spice: source %s needs a waveform", id)
	}
	c.elems = append(c.elems, &isource{np: c.Node(np), nn: c.Node(nn), wave: w})
	return nil
}

// AddFET adds a FET with the given drain, gate, source nodes, parameter set
// and width in meters.
func (c *Circuit) AddFET(id, drain, gate, source string, p device.Params, widthMeters float64) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("spice: FET %s: %w", id, err)
	}
	if widthMeters <= 0 {
		return fmt.Errorf("spice: FET %s must have positive width", id)
	}
	c.elems = append(c.elems, &fet{
		d: c.Node(drain), g: c.Node(gate), s: c.Node(source),
		params: p, w: widthMeters,
	})
	return nil
}

// unknowns assigns branch indices and reports the system size.
func (c *Circuit) unknowns() int {
	n := len(c.nodeNames)
	for _, e := range c.elems {
		if vs, ok := e.(*vsource); ok {
			vs.brIdx = n
			n++
		}
	}
	return n
}

var errNoNodes = errors.New("spice: circuit has no nodes")
