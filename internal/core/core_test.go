package core

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ppatc/internal/carbon"
	"ppatc/internal/embench"
	"ppatc/internal/units"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// evaluateOnce caches the two headline evaluations; the full pipeline runs
// the 20M-cycle workload, so tests share one run.
var (
	evalOnce   sync.Once
	siResult   *PPAtC
	m3dResult  *PPAtC
	evalErrMsg string
)

func headline(t *testing.T) (*PPAtC, *PPAtC) {
	t.Helper()
	evalOnce.Do(func() {
		w := embench.MatmultInt()
		a, err := Evaluate(AllSiSystem(), w, carbon.GridUS)
		if err != nil {
			evalErrMsg = err.Error()
			return
		}
		b, err := Evaluate(M3DSystem(), w, carbon.GridUS)
		if err != nil {
			evalErrMsg = err.Error()
			return
		}
		siResult, m3dResult = a, b
	})
	if evalErrMsg != "" {
		t.Fatal(evalErrMsg)
	}
	return siResult, m3dResult
}

// TestCanonicalSystemNameNamesTheDesign pins the name-only lookup to
// the designs it stands for: every accepted spelling resolves to the
// Name of the design SystemByName builds.
func TestCanonicalSystemNameNamesTheDesign(t *testing.T) {
	for _, name := range []string{"si", "SI", "all-si", "allsi", "all-Si", "m3d", "M3D", "m3d igzo/cnfet/si", M3DName} {
		canonical, err := CanonicalSystemName(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		sys, err := SystemByName(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if canonical != sys.Name {
			t.Errorf("%q: canonical name %q, design name %q", name, canonical, sys.Name)
		}
	}
	if _, err := CanonicalSystemName("gaas"); err == nil {
		t.Error("unknown system accepted")
	}
}

// TestTable2Anchors verifies the headline reproduction of the paper's
// Table II, row by row.
func TestTable2Anchors(t *testing.T) {
	si, m3d := headline(t)

	// Clock: 500 MHz both.
	if si.Clock != units.Megahertz(500) || m3d.Clock != units.Megahertz(500) {
		t.Error("clock must be 500 MHz")
	}
	// M0 dynamic energy per cycle: 1.42 pJ both (same Si core).
	for _, r := range []*PPAtC{si, m3d} {
		if got := r.M0DynamicPerCycle.Picojoules(); !almostEqual(got, 1.42, 0.03) {
			t.Errorf("%s M0 energy = %v pJ, want 1.42 ± 3%%", r.System, got)
		}
	}
	if si.M0DynamicPerCycle != m3d.M0DynamicPerCycle {
		t.Error("both designs share the Si M0: identical core energy expected")
	}
	// Average memory energy per cycle: 18.0 / 15.5 pJ.
	if got := si.MemPerCycle.Picojoules(); !almostEqual(got, 18.0, 0.01) {
		t.Errorf("Si memory energy = %v pJ/cycle, want 18.0 ± 1%%", got)
	}
	if got := m3d.MemPerCycle.Picojoules(); !almostEqual(got, 15.5, 0.01) {
		t.Errorf("M3D memory energy = %v pJ/cycle, want 15.5 ± 1%%", got)
	}
	// Cycles to run matmul-int: 20,047,348.
	for _, r := range []*PPAtC{si, m3d} {
		if !almostEqual(float64(r.Cycles), 20047348, 0.001) {
			t.Errorf("%s cycles = %d, want ≈20,047,348", r.System, r.Cycles)
		}
	}
	// Memory footprints: 0.068 / 0.025 mm².
	if got := si.MemoryArea.SquareMillimeters(); !almostEqual(got, 0.068, 0.03) {
		t.Errorf("Si memory area = %v mm², want 0.068", got)
	}
	if got := m3d.MemoryArea.SquareMillimeters(); !almostEqual(got, 0.025, 0.03) {
		t.Errorf("M3D memory area = %v mm², want 0.025", got)
	}
	// Total areas: 0.139 / 0.053 mm².
	if got := si.TotalArea.SquareMillimeters(); !almostEqual(got, 0.139, 0.03) {
		t.Errorf("Si total area = %v mm², want 0.139", got)
	}
	if got := m3d.TotalArea.SquareMillimeters(); !almostEqual(got, 0.053, 0.03) {
		t.Errorf("M3D total area = %v mm², want 0.053", got)
	}
	// Embodied carbon per wafer (US grid): 837 / 1100 kg.
	if got := si.EmbodiedPerWafer.Total().Kilograms(); !almostEqual(got, 837, 0.01) {
		t.Errorf("Si wafer carbon = %v kg, want 837 ± 1%%", got)
	}
	if got := m3d.EmbodiedPerWafer.Total().Kilograms(); !almostEqual(got, 1100, 0.01) {
		t.Errorf("M3D wafer carbon = %v kg, want 1100 ± 1%%", got)
	}
	// Dies per wafer: 299,127 / 606,238 within 5%; ratio within 1%.
	if !almostEqual(float64(si.DiesPerWafer), 299127, 0.05) {
		t.Errorf("Si dies = %d, want ≈299,127", si.DiesPerWafer)
	}
	if !almostEqual(float64(m3d.DiesPerWafer), 606238, 0.05) {
		t.Errorf("M3D dies = %d, want ≈606,238", m3d.DiesPerWafer)
	}
	ratio := float64(m3d.DiesPerWafer) / float64(si.DiesPerWafer)
	if !almostEqual(ratio, 606238.0/299127.0, 0.02) {
		t.Errorf("die ratio = %.3f, want ≈2.027", ratio)
	}
	// Embodied carbon per good die: 3.11 / 3.63 g within 6%; the M3D/Si
	// ratio (1.17×, Sec. III-C) within 1.5%.
	if !almostEqual(si.EmbodiedPerGoodDie.Grams(), 3.11, 0.06) {
		t.Errorf("Si per good die = %v g, want ≈3.11", si.EmbodiedPerGoodDie.Grams())
	}
	if !almostEqual(m3d.EmbodiedPerGoodDie.Grams(), 3.63, 0.06) {
		t.Errorf("M3D per good die = %v g, want ≈3.63", m3d.EmbodiedPerGoodDie.Grams())
	}
	gRatio := m3d.EmbodiedPerGoodDie.Grams() / si.EmbodiedPerGoodDie.Grams()
	if !almostEqual(gRatio, 1.17, 0.015) {
		t.Errorf("per-good-die ratio = %.3f, want 1.17 ± 1.5%%", gRatio)
	}
}

func TestOperationalPowerAnchors(t *testing.T) {
	// Table II implies P_op ≈ (1.42 + 18.0) pJ / 2 ns = 9.71 mW (Si) and
	// (1.42 + 15.5) pJ / 2 ns = 8.46 mW (M3D); the model adds small core
	// leakage on top.
	si, m3d := headline(t)
	if got := si.OperationalPower.Milliwatts(); !almostEqual(got, 9.71, 0.01) {
		t.Errorf("Si operational power = %v mW, want ≈9.71", got)
	}
	if got := m3d.OperationalPower.Milliwatts(); !almostEqual(got, 8.46, 0.01) {
		t.Errorf("M3D operational power = %v mW, want ≈8.46", got)
	}
}

func TestAreaRatioSecIIIC(t *testing.T) {
	// Sec. III-C: "the area per die of the all-Si design is 2.72× larger
	// than the M3D design".
	si, m3d := headline(t)
	ratio := si.TotalArea.SquareMillimeters() / m3d.TotalArea.SquareMillimeters()
	if !almostEqual(ratio, 2.72, 0.06) {
		t.Errorf("area ratio = %.3f, want ≈2.72", ratio)
	}
	// "...but produces 1.13× more good dies per wafer" (M3D over all-Si).
	goodSi := float64(si.DiesPerWafer) * si.Yield
	goodM3D := float64(m3d.DiesPerWafer) * m3d.Yield
	if !almostEqual(goodM3D/goodSi, 1.13, 0.02) {
		t.Errorf("good-die ratio = %.3f, want ≈1.13", goodM3D/goodSi)
	}
}

func TestExecTimeAndWorkloadEcho(t *testing.T) {
	si, _ := headline(t)
	wantT := float64(si.Cycles) * 2e-9
	if !almostEqual(si.ExecTime, wantT, 1e-12) {
		t.Errorf("exec time = %v, want %v", si.ExecTime, wantT)
	}
	if si.Workload != "matmult-int" || si.System != "all-Si" {
		t.Errorf("echo fields wrong: %q %q", si.Workload, si.System)
	}
}

func TestFormatTable2(t *testing.T) {
	si, m3d := headline(t)
	out := FormatTable2(si, m3d)
	for _, want := range []string{
		"all-Si", "M3D IGZO/CNFET/Si", "clock frequency",
		"memory energy per cycle", "embodied carbon per good die",
		"matmult-int",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q", want)
		}
	}
}

func TestValidation(t *testing.T) {
	w := embench.Sieve()
	bad := AllSiSystem()
	bad.Name = ""
	if _, err := Evaluate(bad, w, carbon.GridUS); err == nil {
		t.Error("unnamed system should fail")
	}
	bad = AllSiSystem()
	bad.Flow = nil
	if _, err := Evaluate(bad, w, carbon.GridUS); err == nil {
		t.Error("missing flow should fail")
	}
	bad = AllSiSystem()
	bad.Clock = 0
	if _, err := Evaluate(bad, w, carbon.GridUS); err == nil {
		t.Error("zero clock should fail")
	}
	// Clock beyond timing closure should fail loudly.
	bad = AllSiSystem()
	bad.Clock = units.Gigahertz(40)
	if _, err := Evaluate(bad, w, carbon.GridUS); err == nil {
		t.Error("unclosable clock should fail")
	}
}

func TestOtherWorkloadsRun(t *testing.T) {
	// Every bundled workload flows through the full pipeline.
	sys := M3DSystem()
	for _, w := range embench.Workloads() {
		if w.Name == "matmult-int" {
			continue // covered by the headline
		}
		r, err := Evaluate(sys, w, carbon.GridUS)
		if err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		if r.MemPerCycle <= 0 || r.Cycles == 0 {
			t.Errorf("%s: degenerate result", w.Name)
		}
	}
}

func TestGridAffectsOnlyEmbodiedElectricity(t *testing.T) {
	w := embench.Sieve()
	us, err := Evaluate(AllSiSystem(), w, carbon.GridUS)
	if err != nil {
		t.Fatal(err)
	}
	solar, err := Evaluate(AllSiSystem(), w, carbon.GridSolar)
	if err != nil {
		t.Fatal(err)
	}
	if us.EmbodiedPerWafer.Materials != solar.EmbodiedPerWafer.Materials {
		t.Error("materials carbon should not depend on grid")
	}
	if us.EmbodiedPerWafer.Electricity <= solar.EmbodiedPerWafer.Electricity {
		t.Error("US-grid fab electricity carbon should exceed solar")
	}
	if us.MemPerCycle != solar.MemPerCycle {
		t.Error("energy model should not depend on grid")
	}
}

func TestClockSweepFindsCarbonOptimum(t *testing.T) {
	w := embench.Sieve()
	freqs := []units.Frequency{
		units.Megahertz(100), units.Megahertz(300), units.Megahertz(500),
		units.Megahertz(600), units.Gigahertz(40),
	}
	pts, err := ClockSweep(M3DSystem(), w, carbon.GridUS, 24, freqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(freqs) {
		t.Fatalf("sweep returned %d points", len(pts))
	}
	// 40 GHz cannot close timing; the others can. (800 MHz would already
	// fail: the IGZO write at 1.57 ns misses a 1.25 ns period — the
	// physical reason the paper operates at 500 MHz.)
	if pts[4].Feasible {
		t.Error("40 GHz should fail timing")
	}
	for i := 0; i < 4; i++ {
		if !pts[i].Feasible {
			t.Errorf("%v should be feasible", freqs[i])
		}
		if pts[i].TCDP <= 0 {
			t.Errorf("%v: non-positive tCDP", freqs[i])
		}
	}
	// Execution time scales inversely with frequency.
	if pts[0].ExecTime <= pts[3].ExecTime {
		t.Error("exec time must shrink with frequency")
	}
	best, err := BestClock(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !best.Feasible || best.TCDP > pts[0].TCDP || best.TCDP > pts[3].TCDP {
		t.Errorf("best point %v inconsistent", best.Clock)
	}
	// Faster clocks amortize the fixed embodied carbon over less delay:
	// within the feasible range tCDP must fall with frequency.
	for i := 1; i < 4; i++ {
		if pts[i].TCDP >= pts[i-1].TCDP {
			t.Errorf("tCDP should fall from %v to %v", freqs[i-1], freqs[i])
		}
	}
	out, err := FormatClockSweep("m3d", pts, "m3d", pts)
	if err != nil || !strings.Contains(out, "fail") {
		t.Errorf("formatted sweep missing failure marker: %v", err)
	}
}

// TestClockSweepSharesOneRun pins the sweep's reuse: through its memo a
// four-frequency sweep (one point failing timing) runs the ISA
// simulation and the eDRAM build once, and its points equal those of
// per-frequency ClockSweep calls, each on a memo of its own.
func TestClockSweepSharesOneRun(t *testing.T) {
	w := embench.CRC32()
	freqs := []units.Frequency{
		units.Megahertz(300), units.Megahertz(500), units.Megahertz(600), units.Gigahertz(40),
	}
	m := NewMemo()
	got, err := m.ClockSweep(M3DSystem(), w, carbon.GridUS, 24, freqs)
	if err != nil {
		t.Fatal(err)
	}
	var want []ClockSweepPoint
	for _, f := range freqs {
		pt, err := ClockSweep(M3DSystem(), w, carbon.GridUS, 24, []units.Frequency{f})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, pt...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("memoized sweep differs from per-frequency evaluation:\n%+v\nvs\n%+v", got, want)
	}
	stats := m.Stats()
	for _, stage := range []string{StageEmbench, StageEDRAM} {
		if n := stats[stage].Misses; n != 1 {
			t.Errorf("%s ran %d times, want 1", stage, n)
		}
	}
}

func TestClockSweepValidation(t *testing.T) {
	w := embench.Sieve()
	if _, err := ClockSweep(M3DSystem(), w, carbon.GridUS, 24, nil); err == nil {
		t.Error("empty sweep should fail")
	}
	if _, err := ClockSweep(M3DSystem(), w, carbon.GridUS, 24, []units.Frequency{0}); err == nil {
		t.Error("zero frequency should fail")
	}
	if _, err := BestClock([]ClockSweepPoint{{Feasible: false}}); err == nil {
		t.Error("all-infeasible sweep should fail")
	}
}
