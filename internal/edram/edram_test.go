package edram

import (
	"fmt"
	"math"
	"testing"

	"ppatc/internal/device"
	"ppatc/internal/spice"
	"ppatc/internal/units"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func buildSi(t *testing.T) *Memory {
	t.Helper()
	d := SiCellDesign()
	m, err := Build(d, PaperArray(), PaperPeriphery(d))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func buildM3D(t *testing.T) *Memory {
	t.Helper()
	d := M3DCellDesign()
	m, err := Build(d, PaperArray(), PaperPeriphery(d))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCellDesignsValidate(t *testing.T) {
	for _, d := range []CellDesign{SiCellDesign(), M3DCellDesign()} {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
	bad := SiCellDesign()
	bad.SNCap = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero SN cap should be invalid")
	}
	bad = SiCellDesign()
	bad.VWWL = 0.5 // below VDD
	if err := bad.Validate(); err == nil {
		t.Error("VWWL below VDD should be invalid")
	}
	bad = SiCellDesign()
	bad.SenseMargin = 1.0
	if err := bad.Validate(); err == nil {
		t.Error("sense margin ≥ VDD should be invalid")
	}
}

func TestArraySpecValidate(t *testing.T) {
	if err := PaperArray().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := PaperArray()
	bad.Rows = 100 // 100×128 ≠ 2 kB
	if err := bad.Validate(); err == nil {
		t.Error("inconsistent mat should be invalid")
	}
	bad = PaperArray()
	bad.WordBits = 33
	if err := bad.Validate(); err == nil {
		t.Error("non-divisor word width should be invalid")
	}
	if got := PaperArray().SubArrays(); got != 32 {
		t.Errorf("64 kB / 2 kB = %d sub-arrays, want 32", got)
	}
}

func TestMemoryAreasMatchTableII(t *testing.T) {
	// Table II: 64 kB memory footprint 0.068 mm² (Si), 0.025 mm² (M3D).
	si := buildSi(t)
	if got := si.Area.SquareMillimeters(); !almostEqual(got, 0.068, 0.03) {
		t.Errorf("Si 64 kB area = %v mm², want 0.068 ± 3%%", got)
	}
	m3d := buildM3D(t)
	if got := m3d.Area.SquareMillimeters(); !almostEqual(got, 0.025, 0.03) {
		t.Errorf("M3D 64 kB area = %v mm², want 0.025 ± 3%%", got)
	}
	// The area ratio drives the die economics: ≈2.7×.
	ratio := si.Area.SquareMillimeters() / m3d.Area.SquareMillimeters()
	if ratio < 2.4 || ratio > 3.0 {
		t.Errorf("Si/M3D memory area ratio = %.2f, want ≈2.7", ratio)
	}
}

func TestSingleCycleTimingAt500MHz(t *testing.T) {
	// Paper constraint: read and write complete within one 2 ns cycle.
	clk := units.Megahertz(500)
	for _, m := range []*Memory{buildSi(t), buildM3D(t)} {
		if !m.MeetsTiming(clk) {
			t.Errorf("%s: read %.3g s / write %.3g s exceed 2 ns",
				m.Design.Name, m.ReadLatency, m.WriteLatency)
		}
		if m.ReadLatency <= 0 || m.WriteLatency <= 0 {
			t.Errorf("%s: non-positive latency", m.Design.Name)
		}
	}
}

func TestRetentionRegimes(t *testing.T) {
	si := buildSi(t)
	m3d := buildM3D(t)
	// Si gain cell: microseconds-scale retention → needs refresh.
	if si.Timing.Retention > 1e-2 || si.Timing.Retention < 1e-6 {
		t.Errorf("Si retention = %.3g s, want µs-ms scale", si.Timing.Retention)
	}
	if si.RefreshPower <= 0 || math.IsInf(si.RefreshInterval, 1) {
		t.Error("Si memory must refresh")
	}
	// M3D IGZO cell: >1000 s retention (paper cites Belmonte) → no refresh.
	if m3d.Timing.Retention < 1000 {
		t.Errorf("M3D retention = %.3g s, want > 1000 s", m3d.Timing.Retention)
	}
	if m3d.RefreshPower != 0 || !math.IsInf(m3d.RefreshInterval, 1) {
		t.Error("M3D memory must not refresh")
	}
}

func TestM3DReadsFasterWritesSlower(t *testing.T) {
	// Table I trade-offs realized: the CNFET read stack beats Si; the IGZO
	// write (even overdriven) is slower than the Si write.
	si := buildSi(t)
	m3d := buildM3D(t)
	if m3d.Timing.ReadDelay >= si.Timing.ReadDelay {
		t.Errorf("CNFET read %.3g s should beat Si read %.3g s",
			m3d.Timing.ReadDelay, si.Timing.ReadDelay)
	}
	if m3d.Timing.WriteDelay <= si.Timing.WriteDelay {
		t.Errorf("IGZO write %.3g s should be slower than Si write %.3g s",
			m3d.Timing.WriteDelay, si.Timing.WriteDelay)
	}
}

func TestAccessEnergiesOrdering(t *testing.T) {
	si := buildSi(t)
	m3d := buildM3D(t)
	for _, m := range []*Memory{si, m3d} {
		if m.ReadEnergy <= 0 || m.WriteEnergy <= 0 {
			t.Fatalf("%s: non-positive access energy", m.Design.Name)
		}
		// Access energies at 64 kB/7 nm land in the picojoule decade.
		if m.ReadEnergy < 1e-12 || m.ReadEnergy > 50e-12 {
			t.Errorf("%s read energy = %.3g J, want pJ scale", m.Design.Name, m.ReadEnergy)
		}
	}
	// The smaller M3D macro must be cheaper per read (shorter wires).
	if m3d.ReadEnergy >= si.ReadEnergy {
		t.Errorf("M3D read %.3g J should beat Si %.3g J", m3d.ReadEnergy, si.ReadEnergy)
	}
}

func TestEnergyPerCycle(t *testing.T) {
	si := buildSi(t)
	clk := units.Megahertz(500)
	e, err := si.EnergyPerCycle(1.0, 0.1, clk)
	if err != nil {
		t.Fatal(err)
	}
	manual := si.ReadEnergy + 0.1*si.WriteEnergy + (si.RefreshPower+si.LeakagePower)*2e-9
	if !almostEqual(e.Joules(), manual, 1e-12) {
		t.Errorf("energy per cycle = %v, want %v", e.Joules(), manual)
	}
	if _, err := si.EnergyPerCycle(-1, 0, clk); err == nil {
		t.Error("negative rate should fail")
	}
	if _, err := si.EnergyPerCycle(1, 0, 0); err == nil {
		t.Error("zero clock should fail")
	}
	// Idle memory still pays refresh + leakage.
	idle, err := si.EnergyPerCycle(0, 0, clk)
	if err != nil {
		t.Fatal(err)
	}
	if idle.Joules() <= 0 {
		t.Error("idle Si memory should still burn refresh+leakage energy")
	}
}

func TestCharacterizeCellErrors(t *testing.T) {
	if _, err := CharacterizeCell(SiCellDesign(), 0); err == nil {
		t.Error("zero bitline cap should fail")
	}
	bad := SiCellDesign()
	bad.WriteW = 0
	if _, err := CharacterizeCell(bad, 1e-15); err == nil {
		t.Error("invalid design should fail")
	}
}

func TestBuildValidation(t *testing.T) {
	d := SiCellDesign()
	a := PaperArray()
	if _, err := Build(CellDesign{}, a, PaperPeriphery(d)); err == nil {
		t.Error("invalid design should fail")
	}
	if _, err := Build(d, ArraySpec{}, PaperPeriphery(d)); err == nil {
		t.Error("invalid array should fail")
	}
	p := PaperPeriphery(d)
	p.SenseAmp = -1
	if _, err := Build(d, a, p); err == nil {
		t.Error("negative periphery energy should fail")
	}
}

func TestWriteEnergyScalesWithSNCap(t *testing.T) {
	small := SiCellDesign()
	big := SiCellDesign()
	big.SNCap = 2 * small.SNCap
	ts, err := CharacterizeCell(small, 15e-15)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := CharacterizeCell(big, 15e-15)
	if err != nil {
		t.Fatal(err)
	}
	if tb.WriteEnergy <= ts.WriteEnergy {
		t.Errorf("doubling SN cap should raise write energy: %.3g vs %.3g",
			tb.WriteEnergy, ts.WriteEnergy)
	}
	if tb.Retention <= ts.Retention {
		t.Error("doubling SN cap should lengthen retention")
	}
	if tb.WriteDelay <= ts.WriteDelay {
		t.Error("doubling SN cap should slow the write")
	}
}

func TestIGZOOverdriveRequired(t *testing.T) {
	// Without the boosted wordline the IGZO write cannot finish within a
	// small multiple of the cycle time — that is why the paper sets
	// V_WWL = 1.3 V.
	boosted := M3DCellDesign()
	flat := M3DCellDesign()
	flat.VWWL = flat.VDD
	tb, err := CharacterizeCell(boosted, 15e-15)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := CharacterizeCell(flat, 15e-15)
	if err == nil && tf.WriteDelay < 2*tb.WriteDelay {
		t.Errorf("unboosted IGZO write %.3g s should be ≫ boosted %.3g s",
			tf.WriteDelay, tb.WriteDelay)
	}
	// (An error is acceptable too: the unboosted SN may never reach the
	// write target, since VDD − VT leaves almost no overdrive.)
}

func TestRefreshIntervalGuardband(t *testing.T) {
	si := buildSi(t)
	if !almostEqual(si.RefreshInterval, si.Timing.Retention/2, 1e-9) {
		t.Errorf("refresh interval %v should be half the retention %v",
			si.RefreshInterval, si.Timing.Retention)
	}
}

func TestTemperatureCollapsesSiRetention(t *testing.T) {
	cold, err := CharacterizeCell(SiCellDesign().AtTemperature(25), 15e-15)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := CharacterizeCell(SiCellDesign().AtTemperature(85), 15e-15)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Retention >= cold.Retention/3 {
		t.Errorf("85°C retention %.3g s should be far below 25°C %.3g s",
			hot.Retention, cold.Retention)
	}
	// The M3D cell still holds for hours at 85°C (the anchored IGZO
	// leakage doubles every 25 K but starts ~9 orders below the Si cell).
	m3dHot, err := CharacterizeCell(M3DCellDesign().AtTemperature(85), 15e-15)
	if err != nil {
		t.Fatal(err)
	}
	if m3dHot.Retention < 3600 {
		t.Errorf("M3D retention at 85°C = %.3g s, want hours", m3dHot.Retention)
	}
	if m3dHot.Retention < 100*hot.Retention {
		t.Error("hot M3D retention should still dwarf hot Si retention")
	}
}

// TestReadIsNonDestructive verifies the 3T topology's key property (paper
// Sec. III-A: high endurance, charge-based, non-destructive reads): the
// storage node barely moves while the read stack discharges the bitline.
// The SN floats on its capacitor during the read; only gate-coupling
// through the storage transistor can disturb it.
func TestReadIsNonDestructive(t *testing.T) {
	d := M3DCellDesign()
	ck := spice.NewCircuit()
	mustOK := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// SN pre-charged to VDD on its own capacitor (floating — no source).
	mustOK(ck.AddC("csn", "sn", spice.Ground, d.SNCap))
	mustOK(ck.AddI("preset", spice.Ground, "sn", spice.Pulse{
		V1: 0, V2: d.SNCap * d.VDD / 50e-12, Delay: 1e-12, Rise: 0, Width: 50e-12, Fall: 0}))
	// Read wordline pulses after the preset completes.
	rwl := spice.Pulse{V1: 0, V2: d.VDD, Delay: 100e-12, Rise: 20e-12, Width: 1e-9, Fall: 20e-12}
	mustOK(ck.AddV("vrwl", "rwl", spice.Ground, rwl))
	mustOK(ck.AddV("vdd", "vdd", spice.Ground, spice.DC(d.VDD)))
	preGate := spice.Pulse{V1: 0, V2: d.VDD, Delay: 80e-12, Rise: 10e-12, Width: 1}
	mustOK(ck.AddV("vpre", "preb", spice.Ground, preGate))
	mustOK(ck.AddFET("mpre", "rbl", "preb", "vdd", device.SiPFET(device.RVT), 200e-9))
	mustOK(ck.AddC("cbl", "rbl", spice.Ground, 15e-15))
	mustOK(ck.AddFET("msel", "rbl", "rwl", "mid", d.Select, d.SelectW))
	mustOK(ck.AddFET("msto", "mid", "sn", spice.Ground, d.Storage, d.StorageW))

	tr, err := ck.TransientFromZero(1.2e-9, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	snBefore, err := tr.At("sn", 90e-12)
	if err != nil {
		t.Fatal(err)
	}
	snAfter, err := tr.At("sn", 1.1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if snBefore < 0.9*d.VDD {
		t.Fatalf("SN preset failed: %v V", snBefore)
	}
	droop := snBefore - snAfter
	if droop > 0.03 {
		t.Errorf("read disturbed SN by %.3f V, want < 30 mV (non-destructive)", droop)
	}
	// Meanwhile the bitline must actually have drooped (the read worked).
	rbl, err := tr.At("rbl", 1.1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if rbl > d.VDD-0.05 {
		t.Errorf("bitline never discharged (%.3f V): read did not happen", rbl)
	}
}

func TestTwoT0CTopologyTradeOffs(t *testing.T) {
	d := TwoT0CCellDesign()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	tm, err := CharacterizeCell(d, 15e-15)
	if err != nil {
		t.Fatal(err)
	}
	m3dTiming, err := CharacterizeCell(M3DCellDesign(), 15e-15)
	if err != nil {
		t.Fatal(err)
	}
	// Smaller cell than the 3T IGZO/CNFET design.
	if d.CellArea() >= M3DCellDesign().CellArea() {
		t.Error("2T0C cell should be smaller than the 3T cell")
	}
	// Retention stays in the no-refresh regime (IGZO hold leakage).
	if tm.Retention < 1000 {
		t.Errorf("2T0C retention = %.3g s, want > 1000 s", tm.Retention)
	}
	// The IGZO read is orders of magnitude slower than the CNFET stack —
	// the quantified reason the paper pays for CNFETs in the read path.
	if tm.ReadDelay < 20*m3dTiming.ReadDelay {
		t.Errorf("2T0C read %.3g s should be ≫ 3T read %.3g s", tm.ReadDelay, m3dTiming.ReadDelay)
	}
	// And it misses the paper's 2 ns single-cycle contract.
	if tm.ReadDelay < 2e-9 {
		t.Errorf("2T0C read %.3g s unexpectedly meets 2 ns — check IGZO drive", tm.ReadDelay)
	}
}

// TestBuildBitIdentical pins the macro outputs of both bundled designs
// bit for bit: the SPICE solver's arithmetic order is part of the model,
// so a solver refactor that changes any bit fails here.
func TestBuildBitIdentical(t *testing.T) {
	type bitsOf struct {
		area, readE, writeE, readLat, writeLat, refreshP, leakP uint64
	}
	for _, tc := range []struct {
		d    CellDesign
		want bitsOf
	}{
		{SiCellDesign(), bitsOf{0x3e7248dc7eba2a92, 0x3db51f068feffe5e, 0x3db4147858f8fe21, 0x3dfe8f5d589010fd, 0x3df0b27444831e4c, 0x3f322ee64126f8bc, 0x3f1f75104d551d69}},
		{M3DCellDesign(), bitsOf{0x3e5b05876e5b011f, 0x3db36eaac38cc008, 0x3db265383a7a1611, 0x3df6fc4af3940b36, 0x3e1afefafd240bcc, 0x0, 0x3f1797cc39ffd60f}},
	} {
		m, err := Build(tc.d, PaperArray(), PaperPeriphery(tc.d))
		if err != nil {
			t.Fatal(err)
		}
		got := bitsOf{
			math.Float64bits(float64(m.Area)),
			math.Float64bits(m.ReadEnergy), math.Float64bits(m.WriteEnergy),
			math.Float64bits(m.ReadLatency), math.Float64bits(m.WriteLatency),
			math.Float64bits(m.RefreshPower), math.Float64bits(m.LeakagePower),
		}
		if got != tc.want {
			t.Errorf("%s: got %#x\n want %#x", tc.d.Name, got, tc.want)
		}
	}
}

// TestCharacterizeCellAllocBudget holds the SPICE characterization to a
// fixed allocation budget: an analysis builds its MNA system once and
// reuses it across every Newton iteration and time step, and the read
// transient records samples only up to its crossing (251 allocations
// when the budget was set).
func TestCharacterizeCellAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	d := SiCellDesign()
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := CharacterizeCell(d, 15e-15); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 280
	if allocs > budget {
		t.Errorf("Si bitcell characterization: %.0f allocs, budget %d", allocs, budget)
	}
	t.Logf("Si bitcell characterization: %.0f allocs", allocs)
}

// TestReadDelayMatchesFullTransient pins readTransient's early stop to the
// full-window transient it replaced: the read delay of each cell, at each
// temperature and over a range of bitline loads around the paper array's,
// is bit-identical to a full Transient read back through CrossingTime,
// and a failure reports the same error text.
func TestReadDelayMatchesFullTransient(t *testing.T) {
	loads := []float64{0.25, 0.5, 1, 2, 4}
	temps := []float64{-40, 25, 85, 125}
	if raceEnabled {
		// The detector slows the full-window reference ~10×; keep the
		// paper load and the extreme corners.
		loads, temps = []float64{1}, []float64{-40, 125}
	}
	for _, base := range []CellDesign{SiCellDesign(), M3DCellDesign(), TwoT0CCellDesign()} {
		m, err := Build(base, PaperArray(), PaperPeriphery(base))
		if err != nil {
			t.Fatal(err)
		}
		designs := []CellDesign{base}
		for _, tc := range temps {
			designs = append(designs, base.AtTemperature(tc))
		}
		for _, d := range designs {
			for _, k := range loads {
				blCap := k * m.BitlineCap
				got, gotErr := readTransient(d, blCap)
				want, wantErr := fullWindowRead(d, blCap)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s, blCap %.3g F: error %v, full window %v", d.Name, blCap, gotErr, wantErr)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s, blCap %.3g F: read delay %#x (%.6g s), full window %#x (%.6g s)",
						d.Name, blCap, math.Float64bits(got), got, math.Float64bits(want), want)
				}
			}
		}
	}
}

// fullWindowRead is readTransient as it ran before the early stop: the
// whole window through Transient, then CrossingTime.
func fullWindowRead(d CellDesign, blCap float64) (float64, error) {
	ck, tstop, dt, err := readCircuit(d, blCap)
	if err != nil {
		return 0, err
	}
	tr, err := ck.Transient(tstop, dt)
	if err != nil {
		return 0, err
	}
	target := d.VDD - d.SenseMargin
	tc, err := tr.CrossingTime("rbl", target, false, readStart)
	if err != nil {
		return 0, fmt.Errorf("RBL never drooped to %.2f V: %w", target, err)
	}
	return tc - readStart, nil
}
