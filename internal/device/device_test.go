package device

import (
	"math"
	"testing"
	"testing/quick"
)

func TestParamsValidate(t *testing.T) {
	all := []Params{
		SiNFET(HVT), SiNFET(RVT), SiNFET(LVT), SiNFET(SLVT),
		SiPFET(RVT), CNFET(), CNFETPMOS(), IGZO(),
	}
	for _, p := range all {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	bad := SiNFET(RVT)
	bad.SSmVdec = 30 // below model validity
	if err := bad.Validate(); err == nil {
		t.Error("sub-thermal swing should be invalid")
	}
	bad = SiNFET(RVT)
	bad.VT0 = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero VT should be invalid")
	}
}

func TestVTFlavorStrings(t *testing.T) {
	want := []string{"HVT", "RVT", "LVT", "SLVT"}
	for i, f := range VTFlavors() {
		if f.String() != want[i] {
			t.Errorf("flavor %d = %q, want %q", i, f.String(), want[i])
		}
	}
}

func TestSiIONInASAP7Envelope(t *testing.T) {
	// ASAP7-class FinFETs deliver roughly 0.4-0.9 mA/µm at VDD = 0.7 V.
	for _, f := range VTFlavors() {
		ion := SiNFET(f).ION(VDD) // A/m == µA/µm
		if ion < 300 || ion > 1000 {
			t.Errorf("Si NMOS %s ION = %.0f µA/µm, want 300-1000", f, ion)
		}
	}
}

func TestVTFlavorOrdering(t *testing.T) {
	// Lower VT ⇒ more drive and more leakage, strictly.
	flavors := VTFlavors()
	for i := 1; i < len(flavors); i++ {
		slow, fast := SiNFET(flavors[i-1]), SiNFET(flavors[i])
		if fast.ION(VDD) <= slow.ION(VDD) {
			t.Errorf("%s ION should exceed %s", fast.Name, slow.Name)
		}
		if fast.IOFF(VDD) <= slow.IOFF(VDD) {
			t.Errorf("%s IOFF should exceed %s", fast.Name, slow.Name)
		}
	}
	// Leakage steps should be roughly a decade per flavour.
	ratio := SiNFET(SLVT).IOFF(VDD) / SiNFET(HVT).IOFF(VDD)
	if ratio < 1e2 || ratio > 1e5 {
		t.Errorf("SLVT/HVT leakage ratio = %.2g, want within [1e2, 1e5]", ratio)
	}
}

func TestTableIOrderings(t *testing.T) {
	// Paper Table I: CNFET has high I_EFF (above Si); IGZO has low I_EFF
	// and ultra-low I_OFF; CNFET I_OFF exceeds IGZO's.
	si := SiNFET(RVT)
	cn := CNFET()
	ig := IGZO()
	if cn.IEFF(VDD) <= si.IEFF(VDD) {
		t.Errorf("CNFET IEFF %.0f should exceed Si %.0f", cn.IEFF(VDD), si.IEFF(VDD))
	}
	if ig.IEFF(VDD) >= si.IEFF(VDD)/10 {
		t.Errorf("IGZO IEFF %.2f should be far below Si %.0f", ig.IEFF(VDD), si.IEFF(VDD))
	}
	if cn.IOFF(VDD) <= si.IOFF(VDD) {
		t.Errorf("CNFET IOFF %.3g should exceed Si %.3g (metallic CNTs)", cn.IOFF(VDD), si.IOFF(VDD))
	}
	if ig.HoldLeakage(VDD) >= 1e-12 {
		t.Errorf("IGZO hold leakage = %.3g A/m, want ultra-low (<1e-12)", ig.HoldLeakage(VDD))
	}
}

func TestMetallicCNTFloorRaisesIOFF(t *testing.T) {
	with := CNFET()
	without := CNFET()
	without.LeakFloor = 0
	if with.IOFF(VDD) <= without.IOFF(VDD) {
		t.Error("metallic-CNT floor must raise IOFF")
	}
	// The floor must not materially change the on-current.
	if r := with.ION(VDD) / without.ION(VDD); r > 1.01 {
		t.Errorf("leak floor changed ION by %.3f×", r)
	}
}

func TestSubthresholdSwingExtraction(t *testing.T) {
	for _, p := range []Params{SiNFET(RVT), CNFET(), IGZO()} {
		got, err := p.SubthresholdSwing(VDD)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if math.Abs(got-p.SSmVdec) > 0.05*p.SSmVdec {
			t.Errorf("%s extracted swing %.1f mV/dec, parameter %.1f", p.Name, got, p.SSmVdec)
		}
	}
}

func TestIGZOWriteOverdrive(t *testing.T) {
	// The 1.3 V boosted wordline must deliver several times the 0.7 V
	// drive — that is why the paper overdrives the IGZO write transistor.
	ig := IGZO()
	boost := ig.ION(WriteWordlineVoltage)
	nominal := ig.ION(VDD)
	if boost < 2*nominal {
		t.Errorf("1.3 V drive %.3g should be ≥ 2× the 0.7 V drive %.3g", boost, nominal)
	}
}

func TestPMOSMirrorsSymmetry(t *testing.T) {
	n := SiNFET(RVT)
	p := SiPFET(RVT)
	w := 1e-6
	// PMOS with negative bias conducts negative drain current of similar
	// magnitude scaled by its transport deficit.
	in := n.DrainCurrent(VDD, VDD, w)
	ip := p.DrainCurrent(-VDD, -VDD, w)
	if ip >= 0 {
		t.Fatalf("PMOS on-current should be negative, got %v", ip)
	}
	ratio := -ip / in
	if ratio < 0.5 || ratio > 1.0 {
		t.Errorf("PMOS/NMOS drive ratio = %.2f, want 0.5-1.0", ratio)
	}
	// PMOS off state.
	if off := math.Abs(p.DrainCurrent(0, -VDD, w)); off > 1e-9 {
		t.Errorf("PMOS off current = %v A, want < 1 nA for 1 µm", off)
	}
}

func TestDrainCurrentSymmetry(t *testing.T) {
	// Source/drain exchange: I(vgs, vds) = −I(vgs−vds, −vds).
	p := SiNFET(RVT)
	w := 1e-6
	for _, bias := range [][2]float64{{0.7, 0.3}, {0.5, 0.7}, {0.3, 0.05}} {
		vgs, vds := bias[0], bias[1]
		fwd := p.DrainCurrent(vgs, vds, w)
		rev := p.DrainCurrent(vgs-vds, -vds, w)
		if !almostEqual(fwd, -rev, 1e-9) {
			t.Errorf("symmetry broken at vgs=%v vds=%v: %v vs %v", vgs, vds, fwd, -rev)
		}
	}
	// Zero vds carries zero current (no leak floor for Si).
	if i := p.DrainCurrent(VDD, 0, w); i != 0 {
		t.Errorf("I(vdd, 0) = %v, want 0", i)
	}
}

func TestConductancesPositive(t *testing.T) {
	p := SiNFET(RVT)
	_, gm, gds := p.Linearize(VDD, VDD/2, 1e-6)
	if gm <= 0 {
		t.Errorf("gm = %v, want positive in saturation", gm)
	}
	if gds <= 0 {
		t.Errorf("gds = %v, want positive", gds)
	}
}

func TestIEFFBetweenHalfAndFullDrive(t *testing.T) {
	for _, p := range []Params{SiNFET(RVT), CNFET()} {
		ieff := p.IEFF(VDD)
		ion := p.ION(VDD)
		if !(ieff > 0.3*ion && ieff < ion) {
			t.Errorf("%s IEFF=%.0f outside (0.3, 1)×ION=%.0f", p.Name, ieff, ion)
		}
	}
}

func TestHoldLeakagePrefersSpec(t *testing.T) {
	ig := IGZO()
	if got := ig.HoldLeakage(VDD); got != ig.IOFFSpec {
		t.Errorf("hold leakage = %v, want IOFFSpec %v", got, ig.IOFFSpec)
	}
	si := SiNFET(RVT)
	if got := si.HoldLeakage(VDD); got != si.IOFF(VDD) {
		t.Errorf("Si hold leakage should fall back to modeled IOFF")
	}
}

// Property: drain current is monotone in vgs for fixed positive vds, and
// monotone in vds for fixed vgs (NMOS).
func TestCurrentMonotonicity(t *testing.T) {
	p := SiNFET(RVT)
	w := 1e-6
	f := func(a, b uint8, dsel uint8) bool {
		v1 := float64(a%140) / 100 // 0..1.39
		v2 := float64(b%140) / 100
		if v1 > v2 {
			v1, v2 = v2, v1
		}
		vds := 0.05 + float64(dsel%70)/100
		i1 := p.DrainCurrent(v1, vds, w)
		i2 := p.DrainCurrent(v2, vds, w)
		if i2 < i1-1e-15 {
			return false
		}
		// And in vds at fixed vgs.
		j1 := p.DrainCurrent(0.5, v1, w)
		j2 := p.DrainCurrent(0.5, v2, w)
		return j2 >= j1-1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: current scales linearly with width.
func TestCurrentWidthLinearity(t *testing.T) {
	p := CNFET()
	f := func(wNM uint16) bool {
		w := (float64(wNM%1000) + 10) * 1e-9
		i1 := p.DrainCurrent(VDD, VDD, w)
		i2 := p.DrainCurrent(VDD, VDD, 2*w)
		return almostEqual(i2, 2*i1, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}
