package device

import (
	"math"
	"math/rand"
	"testing"
)

// TestLinearizeMatchesDrainCurrent pins Linearize to the five drain
// currents it replaces — the base current and the central differences
// that Conductances took — bit for bit, over seeded bias points for every
// bundled parameter set and its temperature corners. The reference is
// refDrainCurrent, the model as it was written before the per-vds terms
// were split out, so DrainCurrent is pinned to it too. The draws include
// vds = ±0, |vds| below the difference step (where vds ± h flips the
// channel's orientation), vds exactly ±h, negative vds, gate drive past
// the charge model's linear-branch cut-off, and PMOS.
func TestLinearizeMatchesDrainCurrent(t *testing.T) {
	const h = conductanceStep
	// 10⁵ points on each bundled set and 2.5·10⁴ on each of its four
	// temperature corners (the corners move only VT0, SS and IOFFSpec,
	// not the code path).
	points, cornerPoints := 100_000, 25_000
	if testing.Short() || raceEnabled {
		points, cornerPoints = points/10, cornerPoints/10
	}
	var bundled []Params
	for _, f := range VTFlavors() {
		bundled = append(bundled, SiNFET(f), SiPFET(f))
	}
	bundled = append(bundled, CNFET(), CNFETPMOS(), IGZO())
	rng := rand.New(rand.NewSource(1))
	check := func(p Params, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			vgs, vds := biasPoint(rng, p)
			w := 10e-9 + rng.Float64()*1e-6
			id, gm, gds := p.Linearize(vgs, vds, w)
			wantID := refDrainCurrent(p, vgs, vds, w)
			wantGm := (refDrainCurrent(p, vgs+h, vds, w) - refDrainCurrent(p, vgs-h, vds, w)) / (2 * h)
			wantGds := (refDrainCurrent(p, vgs, vds+h, w) - refDrainCurrent(p, vgs, vds-h, w)) / (2 * h)
			if dc := p.DrainCurrent(vgs, vds, w); math.Float64bits(dc) != math.Float64bits(wantID) {
				t.Fatalf("%s at vgs=%v vds=%v w=%v: DrainCurrent %v, reference %v", p.Name, vgs, vds, w, dc, wantID)
			}
			if math.Float64bits(id) != math.Float64bits(wantID) ||
				math.Float64bits(gm) != math.Float64bits(wantGm) ||
				math.Float64bits(gds) != math.Float64bits(wantGds) {
				t.Fatalf("%s at vgs=%v vds=%v w=%v: Linearize (%v, %v, %v), reference differences (%v, %v, %v)",
					p.Name, vgs, vds, w, id, gm, gds, wantID, wantGm, wantGds)
			}
		}
	}
	for _, p := range bundled {
		check(p, points)
		for _, tc := range []float64{-40, 25, 85, 125} {
			check(p.AtTemperature(tc), cornerPoints)
		}
	}
}

// biasPoint draws one (vgs, vds) pair, weighted toward the cases where a
// shortcut could slip: the orientation flip around vds = 0, the
// threshold, and the charge model's branch cut-off.
func biasPoint(rng *rand.Rand, p Params) (vgs, vds float64) {
	const h = conductanceStep
	vgs = -2 + 4*rng.Float64()
	switch rng.Intn(8) {
	case 0:
		vds = []float64{0, math.Copysign(0, -1), h, -h, 2 * h, -2 * h}[rng.Intn(6)]
	case 1, 2:
		vds = (2*rng.Float64() - 1) * 2 * h // |vds| < 2h: vds ± h may flip orientation
	case 3:
		vds = -2 * rng.Float64() // reversed orientation
	case 4:
		// Gate drive near threshold, either polarity.
		vgs = math.Copysign(p.VT0, vgs) + 0.1*(2*rng.Float64()-1)
		vds = -1.5 + 3*rng.Float64()
	case 5:
		// Far above threshold: the charge's arg > 40 branch.
		vgs = math.Copysign(1.5+2*rng.Float64(), vgs)
		vds = -1.5 + 3*rng.Float64()
	default:
		vds = -1.5 + 3*rng.Float64()
	}
	return vgs, vds
}

// refDrainCurrent is DrainCurrent written as one function per evaluation,
// each recomputing every term: the reference the shared-term code must
// match bit for bit.
func refDrainCurrent(p Params, vgs, vds, w float64) float64 {
	if p.Polarity == PMOS {
		return -refNTypeCurrent(p, -vgs, -vds, w)
	}
	return refNTypeCurrent(p, vgs, vds, w)
}

func refNTypeCurrent(p Params, vgs, vds, w float64) float64 {
	if vds >= 0 {
		return w * refChannelCurrent(p, vgs, vds)
	}
	return -w * refChannelCurrent(p, vgs-vds, -vds)
}

func refChannelCurrent(p Params, vgs, vds float64) float64 {
	nphit := p.n() * ThermalVoltage
	vt := p.VT0 - p.DIBL*vds
	arg := (vgs - vt) / nphit
	var q float64
	if arg > 40 {
		q = p.Cinv * nphit * arg
	} else {
		q = p.Cinv * nphit * math.Log1p(math.Exp(arg))
	}
	x := vds / p.vdsat()
	fsat := x / math.Pow(1+math.Pow(x, p.Beta), 1/p.Beta)
	return q*p.Vx0*fsat + p.LeakFloor*math.Tanh(vds/ThermalVoltage)
}
