package spice

import (
	"math"
	"testing"
	"testing/quick"

	"ppatc/internal/device"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestVoltageDividerOP(t *testing.T) {
	c := NewCircuit()
	if err := c.AddV("vin", "in", Ground, DC(1.0)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddR("r1", "in", "mid", 1000); err != nil {
		t.Fatal(err)
	}
	if err := c.AddR("r2", "mid", Ground, 3000); err != nil {
		t.Fatal(err)
	}
	op, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	v, err := op.Voltage("mid")
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(v, 0.75, 1e-6) {
		t.Errorf("divider mid = %v, want 0.75", v)
	}
	i, err := op.SourceCurrent("vin")
	if err != nil {
		t.Fatal(err)
	}
	// 1 V over 4 kΩ: 0.25 mA leaves the + terminal, so branch current is −0.25 mA.
	if !almostEqual(i, -0.25e-3, 1e-6) {
		t.Errorf("source current = %v, want -0.25 mA", i)
	}
	if _, err := op.Voltage("nosuch"); err == nil {
		t.Error("unknown node should fail")
	}
	if _, err := op.SourceCurrent("nosuch"); err == nil {
		t.Error("unknown source should fail")
	}
}

func TestGroundAliases(t *testing.T) {
	c := NewCircuit()
	if c.Node("gnd") != -1 || c.Node("0") != -1 {
		t.Fatal("ground aliases must map to -1")
	}
}

func TestRCChargeMatchesAnalytic(t *testing.T) {
	// Series RC driven by a step: v_c(t) = V·(1 − e^{−t/RC}).
	c := NewCircuit()
	r, cap := 1000.0, 1e-9 // τ = 1 µs
	mustNoErr(t, c.AddV("vs", "in", Ground, Pulse{V1: 0, V2: 1, Delay: 0, Rise: 1e-12, Width: 1, Fall: 1e-12}))
	mustNoErr(t, c.AddR("r", "in", "out", r))
	mustNoErr(t, c.AddC("c", "out", Ground, cap))
	tr, err := c.Transient(5e-6, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	tau := r * cap
	for _, tm := range []float64{0.5e-6, 1e-6, 2e-6, 4e-6} {
		got, err := tr.At("out", tm)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - math.Exp(-tm/tau)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("v_c(%.2g) = %.4f, want %.4f", tm, got, want)
		}
	}
	// Crossing time of 50%: t = τ·ln2.
	tc, err := tr.CrossingTime("out", 0.5, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(tc, tau*math.Ln2, 0.01) {
		t.Errorf("50%% crossing at %v, want %v", tc, tau*math.Ln2)
	}
}

func TestSourceEnergyRCCharge(t *testing.T) {
	// Charging a capacitor to V through a resistor draws E = C·V² from the
	// source (half stored, half dissipated).
	c := NewCircuit()
	mustNoErr(t, c.AddV("vs", "in", Ground, Pulse{V1: 0, V2: 1, Rise: 1e-12, Width: 1}))
	mustNoErr(t, c.AddR("r", "in", "out", 1000))
	mustNoErr(t, c.AddC("c", "out", Ground, 1e-9))
	tr, err := c.Transient(20e-6, 2e-9)
	if err != nil {
		t.Fatal(err)
	}
	e, err := tr.SourceEnergy("vs")
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(e, 1e-9, 0.02) {
		t.Errorf("source energy = %v J, want C·V² = 1e-9", e)
	}
}

func TestCurrentSourceIntoCap(t *testing.T) {
	// A constant current into a capacitor ramps linearly: v = I·t/C.
	c := NewCircuit()
	mustNoErr(t, c.AddI("is", Ground, "out", DC(1e-6)))
	mustNoErr(t, c.AddC("c", "out", Ground, 1e-9))
	tr, err := c.TransientFromZero(1e-3, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.At("out", 0.5e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 0.5, 0.01) {
		t.Errorf("ramp at 0.5 ms = %v, want 0.5 V", got)
	}
}

// buildInverter wires a CMOS inverter with the given input source.
func buildInverter(t *testing.T, in Waveform, loadF float64) *Circuit {
	t.Helper()
	c := NewCircuit()
	mustNoErr(t, c.AddV("vdd", "vdd", Ground, DC(device.VDD)))
	mustNoErr(t, c.AddV("vin", "in", Ground, in))
	mustNoErr(t, c.AddFET("mp", "out", "in", "vdd", device.SiPFET(device.RVT), 54e-9))
	mustNoErr(t, c.AddFET("mn", "out", "in", Ground, device.SiNFET(device.RVT), 36e-9))
	if loadF > 0 {
		mustNoErr(t, c.AddC("cl", "out", Ground, loadF))
	}
	return c
}

func TestInverterStaticLevels(t *testing.T) {
	// Input low → output within a few mV of VDD; input high → near 0.
	low := buildInverter(t, DC(0), 0)
	op, err := low.OP()
	if err != nil {
		t.Fatal(err)
	}
	v, _ := op.Voltage("out")
	if v < device.VDD-0.02 {
		t.Errorf("out with low input = %v, want ≈ VDD", v)
	}
	high := buildInverter(t, DC(device.VDD), 0)
	op, err = high.OP()
	if err != nil {
		t.Fatal(err)
	}
	v, _ = op.Voltage("out")
	if v > 0.02 {
		t.Errorf("out with high input = %v, want ≈ 0", v)
	}
}

func TestInverterTransientSwitch(t *testing.T) {
	in := Pulse{V1: 0, V2: device.VDD, Delay: 0.2e-9, Rise: 10e-12, Width: 5e-9, Fall: 10e-12}
	c := buildInverter(t, in, 1e-15)
	tr, err := c.Transient(3e-9, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	// Output must fall below VDD/2 shortly after the input rises.
	tc, err := tr.CrossingTime("out", device.VDD/2, false, 0.2e-9)
	if err != nil {
		t.Fatal(err)
	}
	delay := tc - (0.2e-9 + 5e-12) // from input 50% point
	if delay <= 0 || delay > 0.5e-9 {
		t.Errorf("inverter fall delay = %v s, want (0, 0.5 ns]", delay)
	}
}

func TestNetlistValidation(t *testing.T) {
	c := NewCircuit()
	if err := c.AddR("r", "a", "b", 0); err == nil {
		t.Error("zero resistance should fail")
	}
	if err := c.AddC("c", "a", "b", -1); err == nil {
		t.Error("negative capacitance should fail")
	}
	if err := c.AddV("v", "a", "b", nil); err == nil {
		t.Error("nil waveform should fail")
	}
	if err := c.AddI("i", "a", "b", nil); err == nil {
		t.Error("nil current waveform should fail")
	}
	if err := c.AddFET("m", "d", "g", "s", device.Params{}, 1e-6); err == nil {
		t.Error("invalid FET params should fail")
	}
	if err := c.AddFET("m", "d", "g", "s", device.SiNFET(device.RVT), 0); err == nil {
		t.Error("zero width should fail")
	}
	if _, err := (&Circuit{nodeIndex: map[string]int{}}).OP(); err == nil {
		t.Error("empty circuit should fail")
	}
	if _, err := NewCircuit().Transient(0, 1); err == nil {
		t.Error("zero tstop should fail")
	}
}

func TestPulseWaveform(t *testing.T) {
	p := Pulse{V1: 0, V2: 1, Delay: 1, Rise: 1, Width: 2, Fall: 1, Period: 10}
	cases := map[float64]float64{
		0: 0, 1: 0, 1.5: 0.5, 2: 1, 3.9: 1, 4.5: 0.5, 6: 0,
		11.5: 0.5, 12.5: 1, // second period
	}
	for tm, want := range cases {
		if got := p.V(tm); !almostEqual(got, want, 1e-9) {
			t.Errorf("pulse(%v) = %v, want %v", tm, got, want)
		}
	}
	// Zero rise/fall are steps.
	step := Pulse{V1: 0, V2: 1, Width: 1}
	if step.V(0) != 1 {
		t.Errorf("zero-rise pulse at t=0 = %v, want 1", step.V(0))
	}
}

func TestPWLWaveform(t *testing.T) {
	w, err := NewPWL([2]float64{0, 0}, [2]float64{1, 1}, [2]float64{2, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[float64]float64{-1: 0, 0: 0, 0.5: 0.5, 1: 1, 1.5: 0.75, 2: 0.5, 3: 0.5}
	for tm, want := range cases {
		if got := w.V(tm); !almostEqual(got, want, 1e-9) {
			t.Errorf("pwl(%v) = %v, want %v", tm, got, want)
		}
	}
	if _, err := NewPWL([2]float64{1, 0}, [2]float64{1, 1}); err == nil {
		t.Error("non-increasing PWL times should fail")
	}
	if _, err := NewPWL(); err == nil {
		t.Error("empty PWL should fail")
	}
}

func TestTranAccessors(t *testing.T) {
	c := NewCircuit()
	mustNoErr(t, c.AddV("vs", "a", Ground, DC(1)))
	mustNoErr(t, c.AddR("r", "a", Ground, 1000))
	tr, err := c.Transient(1e-6, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Voltage("zzz"); err == nil {
		t.Error("unknown node should fail")
	}
	if _, err := tr.SourceCurrent("zzz"); err == nil {
		t.Error("unknown source should fail")
	}
	g, err := tr.Voltage(Ground)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range g {
		if v != 0 {
			t.Fatal("ground waveform must be identically zero")
		}
	}
	if _, err := tr.CrossingTime("a", 2.0, true, 0); err == nil {
		t.Error("impossible crossing should fail")
	}
}

// Property: a resistive ladder of random positive resistances always yields
// node voltages within the source range (passivity / no overshoot in DC).
func TestLadderPassivity(t *testing.T) {
	f := func(r1, r2, r3 uint16) bool {
		c := NewCircuit()
		res := []float64{float64(r1%9000) + 100, float64(r2%9000) + 100, float64(r3%9000) + 100}
		if c.AddV("v", "n0", Ground, DC(1)) != nil {
			return false
		}
		nodes := []string{"n0", "n1", "n2", Ground}
		for i := 0; i < 3; i++ {
			if c.AddR("r"+nodes[i], nodes[i], nodes[i+1], res[i]) != nil {
				return false
			}
		}
		op, err := c.OP()
		if err != nil {
			return false
		}
		for _, n := range []string{"n1", "n2"} {
			v, err := op.Voltage(n)
			if err != nil || v < -1e-9 || v > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: capacitor voltage in the RC charge never exceeds the source
// voltage (BE is monotone for this circuit).
func TestRCNoOvershoot(t *testing.T) {
	c := NewCircuit()
	mustNoErr(t, c.AddV("vs", "in", Ground, Pulse{V1: 0, V2: 1, Rise: 1e-12, Width: 1}))
	mustNoErr(t, c.AddR("r", "in", "out", 1000))
	mustNoErr(t, c.AddC("c", "out", Ground, 1e-9))
	tr, err := c.Transient(10e-6, 5e-9)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := tr.Voltage("out")
	for i, v := range w {
		if v < -1e-9 || v > 1+1e-9 {
			t.Fatalf("overshoot at sample %d: %v", i, v)
		}
		if i > 0 && v < w[i-1]-1e-9 {
			t.Fatalf("non-monotone charge at sample %d", i)
		}
	}
}

func mustNoErr(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestTransientPWLSource(t *testing.T) {
	pwl, err := NewPWL([2]float64{0, 0}, [2]float64{1e-9, 0.7}, [2]float64{2e-9, 0.35})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCircuit()
	mustNoErr(t, c.AddV("v1", "a", Ground, pwl))
	mustNoErr(t, c.AddR("r1", "a", Ground, 1e3))
	tr, err := c.Transient(2e-9, 0.05e-9)
	if err != nil {
		t.Fatal(err)
	}
	v, err := tr.At("a", 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-0.7) > 0.01 {
		t.Errorf("pwl at 1 ns = %v, want 0.7", v)
	}
}

// TestEnergyConservationRC verifies the simulator's books balance: in a
// driven RC, the source's delivered energy equals the capacitor's stored
// energy plus the resistor's dissipation (computed independently from the
// waveforms).
func TestEnergyConservationRC(t *testing.T) {
	c := NewCircuit()
	if err := c.AddV("vs", "in", Ground, Pulse{V1: 0, V2: 1, Rise: 1e-12, Width: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddR("r", "in", "out", 2000); err != nil {
		t.Fatal(err)
	}
	if err := c.AddC("c", "out", Ground, 2e-9); err != nil {
		t.Fatal(err)
	}
	tr, err := c.Transient(40e-6, 4e-9)
	if err != nil {
		t.Fatal(err)
	}
	delivered, err := tr.SourceEnergy("vs")
	if err != nil {
		t.Fatal(err)
	}
	vin, err := tr.Voltage("in")
	if err != nil {
		t.Fatal(err)
	}
	vout, err := tr.Voltage("out")
	if err != nil {
		t.Fatal(err)
	}
	// Dissipation: ∫ (vin−vout)²/R dt (trapezoidal).
	var dissipated float64
	for i := 1; i < len(tr.Times); i++ {
		dt := tr.Times[i] - tr.Times[i-1]
		p0 := (vin[i-1] - vout[i-1]) * (vin[i-1] - vout[i-1]) / 2000
		p1 := (vin[i] - vout[i]) * (vin[i] - vout[i]) / 2000
		dissipated += dt * (p0 + p1) / 2
	}
	stored := 0.5 * 2e-9 * vout[len(vout)-1] * vout[len(vout)-1]
	balance := (stored + dissipated) / delivered
	if balance < 0.98 || balance > 1.02 {
		t.Errorf("energy books off: delivered %.4g, stored %.4g + dissipated %.4g (ratio %.4f)",
			delivered, stored, dissipated, balance)
	}
}

// TestKCLAtOperatingPoint verifies Kirchhoff's current law holds at a
// solved DC node: the three resistor currents into a star node sum to
// (numerically) zero.
func TestKCLAtOperatingPoint(t *testing.T) {
	c := NewCircuit()
	if err := c.AddV("v1", "a", Ground, DC(1.0)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddV("v2", "b", Ground, DC(-0.5)); err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		id, n1, n2 string
		ohms       float64
	}{
		{"ra", "a", "star", 1000},
		{"rb", "b", "star", 2200},
		{"rc", "star", Ground, 4700},
	} {
		if err := c.AddR(r.id, r.n1, r.n2, r.ohms); err != nil {
			t.Fatal(err)
		}
	}
	op, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	va, _ := op.Voltage("a")
	vb, _ := op.Voltage("b")
	vs, _ := op.Voltage("star")
	sum := (va-vs)/1000 + (vb-vs)/2200 + (0-vs)/4700
	if sum > 1e-9 || sum < -1e-9 {
		t.Errorf("KCL violated at star node: residual %.3g A", sum)
	}
}

// TestRingOscillator closes the loop: a 5-stage inverter ring must
// oscillate with a period of ≈2·N stage delays — the canonical transient
// self-test of a circuit simulator (feedback, no driving source).
func TestRingOscillator(t *testing.T) {
	c := NewCircuit()
	mustNoErr(t, c.AddV("vdd", "vdd", Ground, DC(device.VDD)))
	const stages = 5
	for i := 0; i < stages; i++ {
		in := nodeName("n", i)
		out := nodeName("n", (i+1)%stages)
		mustNoErr(t, c.AddFET(nodeName("mp", i), out, in, "vdd", device.SiPFET(device.SLVT), 54e-9))
		mustNoErr(t, c.AddFET(nodeName("mn", i), out, in, Ground, device.SiNFET(device.SLVT), 36e-9))
		mustNoErr(t, c.AddC(nodeName("c", i), out, Ground, 0.5e-15))
	}
	// Kick the ring out of its metastable DC point.
	mustNoErr(t, c.AddI("kick", Ground, "n0", Pulse{V1: 0, V2: 20e-6, Delay: 1e-12, Rise: 1e-12, Width: 30e-12, Fall: 1e-12}))
	tr, err := c.Transient(3e-9, 0.5e-12)
	if err != nil {
		t.Fatal(err)
	}
	// Count rising crossings of VDD/2 on one node in the second half
	// (after start-up).
	w, err := tr.Voltage("n0")
	if err != nil {
		t.Fatal(err)
	}
	var crossings []float64
	for i := 1; i < len(tr.Times); i++ {
		if tr.Times[i] < 1e-9 {
			continue
		}
		if w[i-1] < device.VDD/2 && w[i] >= device.VDD/2 {
			crossings = append(crossings, tr.Times[i])
		}
	}
	if len(crossings) < 3 {
		t.Fatalf("ring did not oscillate: %d rising crossings", len(crossings))
	}
	period := (crossings[len(crossings)-1] - crossings[0]) / float64(len(crossings)-1)
	// Period ≈ 2 × stages × stage delay; with ~0.5 fF loads at SLVT the
	// stage delay is a few ps, so expect tens of ps overall.
	if period < 10e-12 || period > 500e-12 {
		t.Errorf("oscillation period = %.3g s, want 10-500 ps", period)
	}
	// Periods are stable: max deviation between consecutive periods < 20%.
	for i := 2; i < len(crossings); i++ {
		p1 := crossings[i-1] - crossings[i-2]
		p2 := crossings[i] - crossings[i-1]
		if p2 > 1.2*p1 || p2 < 0.8*p1 {
			t.Errorf("unstable period: %.3g then %.3g", p1, p2)
		}
	}
}

func nodeName(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}
