package device

import (
	"testing"
	"testing/quick"
)

func TestTemperatureRaisesLeakage(t *testing.T) {
	cold := SiNFET(HVT).AtTemperature(25)
	hot := SiNFET(HVT).AtTemperature(85)
	if hot.IOFF(VDD) <= cold.IOFF(VDD) {
		t.Errorf("85°C IOFF %.3g should exceed 25°C %.3g", hot.IOFF(VDD), cold.IOFF(VDD))
	}
	// 60 K should cost at least an order of magnitude of leakage for an
	// HVT device (VT drop + slope flattening).
	if ratio := hot.IOFF(VDD) / cold.IOFF(VDD); ratio < 5 {
		t.Errorf("85/25°C leakage ratio = %.2f, want ≥ 5", ratio)
	}
}

func TestTemperatureSlopeScaling(t *testing.T) {
	base := SiNFET(RVT)
	hot := base.AtTemperature(85)
	wantSS := base.SSmVdec * (85 + 273.15) / ReferenceTempK
	if diff := hot.SSmVdec - wantSS; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("hot SS = %v, want %v", hot.SSmVdec, wantSS)
	}
	// VT drops with temperature.
	if hot.VT0 >= base.VT0 {
		t.Error("VT should drop at high temperature")
	}
	// 27°C is (approximately) the identity.
	same := base.AtTemperature(26.85)
	if d := same.VT0 - base.VT0; d > 1e-6 || d < -1e-6 {
		t.Errorf("300 K round trip changed VT by %v", d)
	}
}

func TestIGZOHoldLeakageDoubling(t *testing.T) {
	base := IGZO()
	hot := base.AtTemperature(26.85 + 25) // one doubling interval
	ratio := hot.IOFFSpec / base.IOFFSpec
	if ratio < 1.99 || ratio > 2.01 {
		t.Errorf("one doubling interval scaled IOFFSpec by %.3f, want 2", ratio)
	}
}

func TestTemperatureClamping(t *testing.T) {
	// Extreme inputs stay valid.
	for _, tc := range []float64{-400, 1000} {
		p := SiNFET(SLVT).AtTemperature(tc)
		if err := p.Validate(); err != nil {
			t.Errorf("clamped params at %v°C invalid: %v", tc, err)
		}
	}
}

func TestMetallicFloorAthermal(t *testing.T) {
	cn := CNFET()
	hot := cn.AtTemperature(85)
	if hot.LeakFloor != cn.LeakFloor {
		t.Error("metallic-CNT floor should not change with temperature")
	}
}

// Property: leakage is monotone in temperature over the validity range.
func TestLeakageMonotoneInTemperature(t *testing.T) {
	f := func(a, b uint8) bool {
		t1 := -25 + float64(a%150)
		t2 := -25 + float64(b%150)
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		p1 := SiNFET(RVT).AtTemperature(t1)
		p2 := SiNFET(RVT).AtTemperature(t2)
		return p2.IOFF(VDD) >= p1.IOFF(VDD)-1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSaturationBehaviour checks the F_sat shape: current saturates in
// vds (less than 5% gain from VDD/2 to VDD in strong inversion for a
// short-channel device biased well above threshold).
func TestSaturationBehaviour(t *testing.T) {
	p := SiNFET(SLVT) // strongest overdrive
	w := 1e-6
	iHalf := p.DrainCurrent(VDD, VDD/2, w)
	iFull := p.DrainCurrent(VDD, VDD, w)
	gain := iFull / iHalf
	if gain < 1.0 || gain > 1.25 {
		t.Errorf("saturation gain VDD/2→VDD = %.3f, want 1.0-1.25", gain)
	}
	// Linear region: at tiny vds, current ∝ vds.
	i1 := p.DrainCurrent(VDD, 0.01, w)
	i2 := p.DrainCurrent(VDD, 0.02, w)
	if r := i2 / i1; r < 1.8 || r > 2.2 {
		t.Errorf("linear-region scaling = %.3f, want ≈2", r)
	}
}

// TestGmOverIdSanity: in weak inversion gm/Id approaches 1/(n·φt); in
// strong inversion it must be far lower.
func TestGmOverIdSanity(t *testing.T) {
	p := SiNFET(RVT)
	w := 1e-6
	gmID := func(vgs float64) float64 {
		id, gm, _ := p.Linearize(vgs, VDD, w)
		return gm / id
	}
	weak := gmID(p.VT0 - 0.15)
	strong := gmID(VDD)
	limit := 1 / (p.SSmVdec * 1e-3 / 2.302585) // 1/(n·φt)
	if weak < 0.7*limit || weak > 1.05*limit {
		t.Errorf("weak-inversion gm/Id = %.1f, want near %.1f", weak, limit)
	}
	if strong > weak/3 {
		t.Errorf("strong-inversion gm/Id %.1f should be far below weak %.1f", strong, weak)
	}
}
