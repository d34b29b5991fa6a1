// Package carbon implements the total-carbon accounting of the PPAtC
// framework: embodied carbon of fabrication (Eq. 2 of the paper), operational
// carbon of use (Eqs. 1, 6-8), per-good-die amortization (Eq. 5), energy-grid
// carbon intensities, and diurnal carbon-intensity profiles.
package carbon

import (
	"fmt"
	"math"
	"strings"

	"ppatc/internal/units"
)

// Grid describes an electricity supply with its carbon intensity. The paper
// evaluates fabrication (CI_fab) and use (CI_use) against four grids whose
// intensities come from Electricity Maps and reference [4].
type Grid struct {
	// Name identifies the grid ("US", "Coal", "Solar", "Taiwan").
	Name string
	// Intensity is the average carbon intensity of delivered energy.
	Intensity units.CarbonIntensity
}

// Canonical grids from the paper (Fig. 2c caption), in gCO2e/kWh.
var (
	GridUS     = Grid{Name: "US", Intensity: units.GramsPerKilowattHour(380)}
	GridCoal   = Grid{Name: "Coal", Intensity: units.GramsPerKilowattHour(820)}
	GridSolar  = Grid{Name: "Solar", Intensity: units.GramsPerKilowattHour(48)}
	GridTaiwan = Grid{Name: "Taiwan", Intensity: units.GramsPerKilowattHour(563)}
)

// Grids returns the four canonical grids in the paper's presentation order.
func Grids() []Grid {
	return []Grid{GridUS, GridCoal, GridSolar, GridTaiwan}
}

// CustomGrid builds a user-defined grid from a name and carbon intensity —
// the extension point the paper leaves open for supplies beyond its four
// (a wind-powered fab, a projected 2035 mix, a measured regional average).
func CustomGrid(name string, intensity units.CarbonIntensity) Grid {
	return Grid{Name: name, Intensity: intensity}
}

// GridByName looks a canonical grid up by name, case-insensitively.
func GridByName(name string) (Grid, error) {
	for _, g := range Grids() {
		if strings.EqualFold(g.Name, name) {
			return g, nil
		}
	}
	names := make([]string, 0, 4)
	for _, g := range Grids() {
		names = append(names, g.Name)
	}
	return Grid{}, fmt.Errorf("carbon: unknown grid %q (valid: %s)", name, strings.Join(names, ", "))
}

// Profile models the time variation of use-phase carbon intensity CI_use(t)
// across a day. Hour is a local time of day in [0, 24).
type Profile interface {
	// At reports the carbon intensity at the given hour of day.
	At(hour float64) units.CarbonIntensity
	// Mean reports the all-day average intensity.
	Mean() units.CarbonIntensity
}

// FlatProfile is a time-invariant CI_use, the baseline assumption when only
// a grid average is known.
type FlatProfile struct {
	Intensity units.CarbonIntensity
}

// At implements Profile.
func (p FlatProfile) At(float64) units.CarbonIntensity { return p.Intensity }

// Mean implements Profile.
func (p FlatProfile) Mean() units.CarbonIntensity { return p.Intensity }

// Flat wraps a grid's average intensity into a constant profile.
func Flat(g Grid) FlatProfile { return FlatProfile{Intensity: g.Intensity} }

// scaledProfile multiplies a base profile by a constant factor.
type scaledProfile struct {
	base   Profile
	factor float64
}

// At implements Profile.
func (p scaledProfile) At(hour float64) units.CarbonIntensity {
	return units.CarbonIntensity(float64(p.base.At(hour)) * p.factor)
}

// Mean implements Profile.
func (p scaledProfile) Mean() units.CarbonIntensity {
	return units.CarbonIntensity(float64(p.base.Mean()) * p.factor)
}

// Scaled multiplies every intensity of a profile by a constant factor —
// the CI_use perturbation of the paper's Fig. 6b ("CI_use within 3×
// either way") and of Monte Carlo uncertainty axes. A scaled flat
// profile is flat: its intensity is the product scaledProfile.At and
// Mean would compute, so the result is the same to the bit.
func Scaled(p Profile, factor float64) Profile {
	if f, ok := p.(FlatProfile); ok {
		return FlatProfile{Intensity: units.CarbonIntensity(float64(f.Intensity) * factor)}
	}
	return scaledProfile{base: p, factor: factor}
}

// HourlyProfile is a piecewise-constant CI_use with one value per hour of
// day, the shape published by grid observatories such as Electricity Maps.
type HourlyProfile struct {
	// Name labels the profile shape.
	Name string
	// Hours holds 24 intensities; Hours[h] applies on [h, h+1).
	Hours [24]units.CarbonIntensity
}

// At implements Profile.
func (p *HourlyProfile) At(hour float64) units.CarbonIntensity {
	h := int(math.Floor(math.Mod(hour, 24)))
	if h < 0 {
		h += 24
	}
	return p.Hours[h]
}

// Mean implements Profile.
func (p *HourlyProfile) Mean() units.CarbonIntensity {
	var sum float64
	for _, v := range p.Hours {
		sum += float64(v)
	}
	return units.CarbonIntensity(sum / 24)
}

// MeanWindow reports the average intensity over the daily window
// [startHour, endHour). Windows may wrap midnight (start > end).
func (p *HourlyProfile) MeanWindow(startHour, endHour float64) units.CarbonIntensity {
	return meanWindow(p, startHour, endHour)
}

// meanWindow numerically averages any profile over a daily window, sampling
// on a fine grid so that piecewise-constant and smooth profiles are both
// handled. Windows may wrap midnight.
//
// Every sample of a constant profile is its intensity, so a flat
// profile's quadrature is the same value added 2,400 times, and
// repeatedSum returns those additions' exact bits without making them
// one by one. The exact mean, the intensity itself, differs in the last
// digits: returning it is an open correctness change that moves pinned
// sweep and suite outputs.
func meanWindow(p Profile, startHour, endHour float64) units.CarbonIntensity {
	const steps = 2400
	if f, ok := p.(FlatProfile); ok {
		return units.CarbonIntensity(repeatedSum(float64(f.Intensity), steps) / steps)
	}
	span := endHour - startHour
	if span <= 0 {
		span += 24
	}
	var sum float64
	for i := 0; i < steps; i++ {
		h := startHour + span*(float64(i)+0.5)/steps
		sum += float64(p.At(h))
	}
	return units.CarbonIntensity(sum / steps)
}

// repeatedSum returns the bits of `for i := 0; i < n; i++ { s += v }`
// from s = 0 in O(binades) steps rather than n.
//
// Inside one binade of the running sum every float is a multiple of one
// ulp u, so an addition whose result stays below the binade's top
// rounds s+v to a multiple of u. Off a tie, the increment is v rounded
// to a multiple of u whatever s is. At a half-ulp tie, round-half-even
// leaves s an even multiple of u, after which every increment is the
// same even multiple. So two equal increments inside one binade repeat
// until the sum reaches the top, and the loop adds k of them at once:
// s + k·d is a multiple of u below the top, so the sum is exact.
func repeatedSum(v float64, n int) float64 {
	if v < 0 && n > 0 {
		// Round-to-nearest-even is symmetric, and a sum of equal signs
		// never returns to zero.
		return -repeatedSum(-v, n)
	}
	if !(v > 0) || math.IsInf(v, 0) {
		// ±0 (whose sum is +0), NaN and +Inf: the loop itself.
		var s float64
		for i := 0; i < n; i++ {
			s += v
		}
		return s
	}
	const fracMask = 1<<52 - 1
	s, inc := 0.0, -1.0 // inc: the last increment taken inside one binade
	for i := 0; i < n; {
		next := s + v
		i++
		nb, sb := math.Float64bits(next), math.Float64bits(s)
		if nb>>52 != sb>>52 {
			if math.IsInf(next, 1) {
				return next
			}
			s, inc = next, -1
			continue
		}
		d := next - s // exact: both are multiples of u in one binade
		//ppatcvet:ignore floatcmp exact: both increments are exact multiples of one ulp
		if d == inc {
			// Integer significands in units of u; subnormals share the
			// smallest normal binade's ulp but stop at its bottom.
			m, top := nb&fracMask, uint64(1)<<52
			if nb>>52 != 0 {
				m, top = m|1<<52, 1<<53
			}
			k := n - i
			if q := nb - sb; q > 0 { // one exponent: the fractions' difference
				k = min(k, int((top-1-m)/q))
			}
			next += float64(k) * d
			i += k
		}
		s, inc = next, d
	}
	return s
}

// wholeHour reports h as an integral hour when it is one up to the
// float drift of callers that compute window bounds arithmetically
// (month offsets, wrapped windows). An exact == math.Trunc gate here
// used to bounce 17.999999999… onto the 2400-step numeric path.
func wholeHour(h float64) (int, bool) {
	r := math.Round(h)
	if math.Abs(h-r) < 1e-9 {
		return int(r), true
	}
	return 0, false
}

// MeanWindow averages an arbitrary profile over a daily window.
func MeanWindow(p Profile, startHour, endHour float64) units.CarbonIntensity {
	hp, hourly := p.(*HourlyProfile)
	s, sOK := wholeHour(startHour)
	e, eOK := wholeHour(endHour)
	if hourly && sOK && eOK {
		// Exact average over whole-hour windows.
		n := e - s
		if n <= 0 {
			n += 24
		}
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(hp.Hours[(s+i)%24])
		}
		return units.CarbonIntensity(sum / float64(n))
	}
	return meanWindow(p, startHour, endHour)
}

// EveningPeak builds an hourly profile with the given daily mean whose shape
// has a fossil-heavy evening peak (the typical load-following shape of
// thermal-backed grids): intensity rises through the evening as solar output
// falls and peaker plants come online.
func EveningPeak(mean units.CarbonIntensity) *HourlyProfile {
	// Relative shape, normalized below to the requested mean.
	shape := [24]float64{
		0.95, 0.93, 0.91, 0.90, 0.90, 0.92, // 00-06: overnight trough
		0.97, 1.02, 1.00, 0.94, 0.88, 0.84, // 06-12: morning ramp, midday solar dip
		0.82, 0.82, 0.85, 0.90, 0.98, 1.08, // 12-18: solar fades
		1.18, 1.22, 1.20, 1.12, 1.04, 0.98, // 18-24: evening peak (8-10pm highest)
	}
	return normalizedProfile("evening-peak", shape, mean)
}

// SolarDay builds an hourly profile with the given daily mean whose shape is
// solar-dominated: low intensity through daylight hours and high at night.
func SolarDay(mean units.CarbonIntensity) *HourlyProfile {
	shape := [24]float64{
		1.45, 1.45, 1.45, 1.45, 1.45, 1.40,
		1.20, 0.90, 0.65, 0.50, 0.42, 0.40,
		0.40, 0.42, 0.48, 0.60, 0.80, 1.05,
		1.30, 1.42, 1.45, 1.45, 1.45, 1.45,
	}
	return normalizedProfile("solar-day", shape, mean)
}

func normalizedProfile(name string, shape [24]float64, mean units.CarbonIntensity) *HourlyProfile {
	var sum float64
	for _, v := range shape {
		sum += v
	}
	scale := float64(mean) * 24 / sum
	p := &HourlyProfile{Name: name}
	for i, v := range shape {
		p.Hours[i] = units.CarbonIntensity(v * scale)
	}
	return p
}
