package carbon

import (
	"math"
	"math/rand/v2"
	"testing"

	"ppatc/internal/units"
)

// quadratureMean is the 2,400-sample midpoint quadrature as meanWindow
// ran it for every profile: the reference a flat profile's window mean
// must reproduce bit for bit.
func quadratureMean(p Profile, startHour, endHour float64) units.CarbonIntensity {
	span := endHour - startHour
	if span <= 0 {
		span += 24
	}
	const steps = 2400
	var sum float64
	for i := 0; i < steps; i++ {
		h := startHour + span*(float64(i)+0.5)/steps
		sum += float64(p.At(h))
	}
	return units.CarbonIntensity(sum / steps)
}

// meanWindows are the windows the identity is checked over: the
// paper's 8-10 pm, midnight-wrapping ones and fractional bounds.
var meanWindows = [][2]float64{
	{20, 22}, {22, 2}, {22, 26}, {20.25, 21.75}, {23.5, 0.5}, {0, 24}, {7.3, 19.9},
}

func TestFlatMeanWindowMatchesQuadrature(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 1))
	const pairs = 100_000
	for i := 0; i < pairs; i++ {
		g := Grid{Name: "rand", Intensity: units.GramsPerKilowattHour(2000 * rng.Float64())}
		var f float64
		if i%2 == 0 {
			f = 0.5 + 1.5*rng.Float64() // Fig. 6b's CI_use range
		} else {
			f = math.Pow(10, -3+6*rng.Float64()) // 1e-3..1e3
		}
		w := meanWindows[i%len(meanWindows)]
		base := Flat(g)
		// scaledProfile is what Scaled returned for every profile before
		// scaled flat profiles became flat themselves.
		ref := scaledProfile{base: base, factor: f}
		got, want := MeanWindow(Scaled(base, f), w[0], w[1]), quadratureMean(ref, w[0], w[1])
		if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Fatalf("intensity %v × %v over %v: MeanWindow = %v, quadrature = %v",
				g.Intensity, f, w, got, want)
		}
		if i%16 == 0 {
			got, want := MeanWindow(base, w[0], w[1]), quadratureMean(base, w[0], w[1])
			if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
				t.Fatalf("flat %v over %v: MeanWindow = %v, quadrature = %v", g.Intensity, w, got, want)
			}
		}
	}
	// Edge rows: half-ulp ties (an odd last significand bit), partial
	// sums that land on a power of two, subnormals, zeros of both signs
	// (the loop's sum of -0 is +0), values whose sum overflows and the
	// non-finite values the loop passes through.
	for _, v := range flatEdgeValues() {
		base := FlatProfile{Intensity: units.CarbonIntensity(v)}
		for _, w := range meanWindows[:2] {
			got, want := MeanWindow(base, w[0], w[1]), quadratureMean(base, w[0], w[1])
			if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
				t.Fatalf("flat %v (%#x) over %v: MeanWindow = %v (%#x), quadrature = %v (%#x)",
					v, math.Float64bits(v), w, got, math.Float64bits(float64(got)), want, math.Float64bits(float64(want)))
			}
		}
	}
}

// flatEdgeValues lists the intensities where a shortcut through the
// 2,400 additions of a flat window mean is most likely to go wrong.
func flatEdgeValues() []float64 {
	maxPer := math.MaxFloat64 / 2400
	vals := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1, 0.25, 1.0 / 3, 0.1, 380, 2400, 1 << 20, 1.0 / 2400, 2.0 / 2400,
		1 + 0x1p-52, 3 + 0x1p-51, 0x1p-5, 0x1.fffffffffffffp0, 0x1.0000000000001p10,
		math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64, 0x1p-1030,
		0x1p-1022 / 3, 0x1p-1022 / 2400, 0x1p-1022, 0x1.fffffffffffffp-1023,
		maxPer, math.Nextafter(maxPer, 0), math.Nextafter(maxPer, math.Inf(1)),
		maxPer * (1 - 1e-12), maxPer * (1 + 1e-12), math.MaxFloat64 / 2048,
		math.MaxFloat64 / 4096, math.MaxFloat64 / 2, math.MaxFloat64,
	}
	for _, v := range vals[:len(vals):len(vals)] {
		vals = append(vals, -v)
	}
	return vals
}

// TestRepeatedSumMatchesLoop checks repeatedSum against the loop it
// replaces over random bit patterns (every exponent, either sign) and
// the edge values, at every count up to the quadrature's and beyond.
func TestRepeatedSumMatchesLoop(t *testing.T) {
	loop := func(v float64, n int) float64 {
		var s float64
		for i := 0; i < n; i++ {
			s += v
		}
		return s
	}
	check := func(v float64, n int) {
		t.Helper()
		if got, want := repeatedSum(v, n), loop(v, n); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("repeatedSum(%v (%#x), %d) = %v (%#x), loop gives %v (%#x)",
				v, math.Float64bits(v), n, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, v := range flatEdgeValues() {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 64, 2399, 2400, 2401, 5000} {
			check(v, n)
		}
	}
	rng := rand.New(rand.NewPCG(26, 1))
	for i := 0; i < 100_000; i++ {
		var v float64
		if i%2 == 0 {
			v = math.Float64frombits(rng.Uint64()) // any bit pattern
		} else {
			v = 2000 * rng.Float64() // intensities and their scales
		}
		n := 2400
		if i%4 == 1 {
			n = 1 + rng.IntN(5000)
		}
		check(v, n)
	}
}

func TestScaledFlatProfileMatchesScaledProfile(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 2))
	for i := 0; i < 10_000; i++ {
		base := Flat(Grid{Intensity: units.GramsPerKilowattHour(2000 * rng.Float64())})
		f := math.Pow(10, -3+6*rng.Float64())
		got, ref := Scaled(base, f), scaledProfile{base: base, factor: f}
		if _, flat := got.(FlatProfile); !flat {
			t.Fatalf("Scaled(FlatProfile) is %T, want FlatProfile", got)
		}
		if math.Float64bits(float64(got.Mean())) != math.Float64bits(float64(ref.Mean())) {
			t.Fatalf("Mean: %v, scaledProfile gives %v", got.Mean(), ref.Mean())
		}
		h := 24 * rng.Float64()
		if math.Float64bits(float64(got.At(h))) != math.Float64bits(float64(ref.At(h))) {
			t.Fatalf("At(%v): %v, scaledProfile gives %v", h, got.At(h), ref.At(h))
		}
	}
	// Scaling twice multiplies in the same order either way.
	base := Flat(GridUS)
	twice, ref := Scaled(Scaled(base, 0.7), 1.9), scaledProfile{base: scaledProfile{base: base, factor: 0.7}, factor: 1.9}
	if math.Float64bits(float64(twice.At(21))) != math.Float64bits(float64(ref.At(21))) {
		t.Errorf("twice scaled: %v, want %v", twice.At(21), ref.At(21))
	}
	// Other profiles keep the generic wrapper.
	if _, flat := Scaled(EveningPeak(GridUS.Intensity), 2).(FlatProfile); flat {
		t.Error("a scaled hourly profile must not collapse to a flat one")
	}
}
