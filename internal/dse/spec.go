package dse

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"ppatc/internal/carbon"
	"ppatc/internal/core"
	"ppatc/internal/embench"
	"ppatc/internal/tcdp"
)

// Spec declares a design-space sweep. Axes missing from the spec are held
// at the paper's case-study defaults (both systems, matmult-int, the US
// grid, the design clock, a 24-month lifetime). The JSON encoding of a
// Spec is the wire format of `ppatc sweep -spec` and POST /v1/sweeps.
type Spec struct {
	// Name labels the sweep in reports and job listings.
	Name string `json:"name,omitempty"`
	// Seed is the root seed every Monte Carlo draw derives from; two runs
	// of the same spec and seed produce identical plans and results.
	Seed int64 `json:"seed,omitempty"`
	// Samples is the number of Monte Carlo replicas when any axis is a
	// distribution (default 100). All distribution axes are sampled
	// jointly per replica, so replicas pair across list axes — the
	// pairing the win-probability analysis depends on.
	Samples int `json:"samples,omitempty"`
	// UseGrid names the grid supplying CI_use for the operational-carbon
	// terms (default "US", the paper's scenario). The grid axis, by
	// contrast, supplies CI_fab.
	UseGrid string `json:"use_grid,omitempty"`
	// Axes are the swept dimensions.
	Axes Axes `json:"axes"`
	// Objectives select the Pareto-frontier metrics (default execution
	// time vs. total carbon — the Fig. 6a trade-off).
	Objectives []Objective `json:"objectives,omitempty"`
}

// Axes names every sweepable dimension. Dimensions are crossed in
// declaration order, with Monte Carlo replicas innermost.
type Axes struct {
	// System lists design names ("si"/"m3d" shorthands or full names).
	// Default: both bundled systems.
	System []string `json:"system,omitempty"`
	// Workload lists bundled kernel names. Default: matmult-int.
	Workload []string `json:"workload,omitempty"`
	// Grid sweeps the fabrication grid (CI_fab). Default: US.
	Grid *GridAxis `json:"grid,omitempty"`
	// ClockMHz sweeps the system clock. Default: the design clock.
	ClockMHz *NumericAxis `json:"clock_mhz,omitempty"`
	// LifetimeMonths sweeps the system lifetime. Default: 24.
	LifetimeMonths *NumericAxis `json:"lifetime_months,omitempty"`
	// YieldD0 sweeps a Poisson defect density (defects/cm²) applied to
	// both designs in place of their baseline yield models.
	YieldD0 *NumericAxis `json:"yield_d0,omitempty"`
	// M3DYield overrides the M3D design's yield fraction only — the
	// paper's Fig. 6b yield uncertainty.
	M3DYield *NumericAxis `json:"m3d_yield,omitempty"`
	// M3DEmbodiedScale scales the M3D design's embodied carbon — the
	// paper's ±20% model-uncertainty band.
	M3DEmbodiedScale *NumericAxis `json:"m3d_embodied_scale,omitempty"`
	// CIUseScale scales the use-phase carbon intensity of both designs.
	CIUseScale *NumericAxis `json:"ci_use_scale,omitempty"`
}

// GridAxis enumerates fabrication grids: canonical names, user-defined
// grids, and/or a range of raw intensities.
type GridAxis struct {
	// Names are canonical grid names (US, Coal, Solar, Taiwan).
	Names []string `json:"names,omitempty"`
	// Custom are user-defined grids (promoted to carbon.CustomGrid).
	Custom []CustomGridSpec `json:"custom,omitempty"`
	// Intensity generates anonymous grids from raw intensities in
	// gCO2e/kWh (named "grid-<value>"). Distributions are not allowed
	// here; use explicit values or a range.
	Intensity *NumericAxis `json:"intensity,omitempty"`
}

// CustomGridSpec is the JSON form of a user-defined grid.
type CustomGridSpec struct {
	Name    string  `json:"name"`
	GPerKWh float64 `json:"intensity_g_per_kwh"`
}

// NumericAxis is one numeric dimension, given as exactly one of: an
// explicit value list, a linear or logarithmic range, or a sampling
// distribution (making the axis Monte Carlo).
type NumericAxis struct {
	Values   []float64 `json:"values,omitempty"`
	Linspace *Range    `json:"linspace,omitempty"`
	Logspace *Range    `json:"logspace,omitempty"`
	Dist     *DistSpec `json:"dist,omitempty"`
}

// Range is an inclusive [Lo, Hi] interval sampled at N points.
type Range struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	N  int     `json:"n"`
}

// DistSpec is the JSON form of a tcdp.Distribution.
type DistSpec struct {
	// Kind is point, uniform, loguniform, or triangular.
	Kind string `json:"kind"`
	// Lo and Hi bound uniform/loguniform/triangular draws.
	Lo float64 `json:"lo,omitempty"`
	Hi float64 `json:"hi,omitempty"`
	// Mode is the triangular mode.
	Mode float64 `json:"mode,omitempty"`
	// Value is the point-distribution constant.
	Value float64 `json:"value,omitempty"`
}

// Objective is one Pareto objective over a Result metric key.
type Objective struct {
	// Metric is a Result metric key (see MetricKeys).
	Metric string `json:"metric"`
	// Maximize inverts the default minimization.
	Maximize bool `json:"maximize,omitempty"`
}

// DefaultSamples is the Monte Carlo replica count when a spec has
// distribution axes but no explicit sample count.
const DefaultSamples = 100

// MaxPlanPoints caps the points one spec may expand to. It sits far
// above every sweep in the repository (the largest, the benchmark's
// Monte Carlo sweep, has 38,400 points) and above the daemon's default
// job cap of 100,000 points, and it keeps a spec of a few hundred bytes
// from asking for an allocation no process survives.
const MaxPlanPoints = 1_000_000

// PointCount is the number of points the spec expands to: the product of
// its axis lengths, defaults included, and its Monte Carlo replica
// count. It builds no axis, and it fails as soon as the product passes
// MaxPlanPoints, so it cannot overflow. An axis Validate rejects for
// having no levels counts as one.
func (s *Spec) PointCount() (int, error) {
	total := 1
	for _, c := range s.dimCounts() {
		c = max(c, 1)
		if total > MaxPlanPoints/c {
			return 0, fmt.Errorf("dse: spec %q expands to more than %d points", s.Name, MaxPlanPoints)
		}
		total *= c
	}
	return total, nil
}

// ParseSpec decodes and validates a JSON sweep spec.
func ParseSpec(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("dse: bad sweep spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Distribution builds the tcdp.Distribution the spec names. A range too
// wide for float64 arithmetic is rejected: its draws would be infinite
// or NaN.
func (d *DistSpec) Distribution() (tcdp.Distribution, error) {
	if math.IsInf(d.Hi-d.Lo, 0) || d.Kind == "loguniform" && math.IsInf(d.Hi/d.Lo, 0) {
		return nil, fmt.Errorf("dse: %s range [%g, %g] is too wide", d.Kind, d.Lo, d.Hi)
	}
	switch d.Kind {
	case "point":
		return tcdp.Point(d.Value), nil
	case "uniform":
		if d.Lo > d.Hi {
			return nil, fmt.Errorf("dse: uniform needs lo <= hi (got [%g, %g])", d.Lo, d.Hi)
		}
		return tcdp.Uniform{Lo: d.Lo, Hi: d.Hi}, nil
	case "loguniform":
		if d.Lo <= 0 || d.Lo > d.Hi {
			return nil, fmt.Errorf("dse: loguniform needs 0 < lo <= hi (got [%g, %g])", d.Lo, d.Hi)
		}
		return tcdp.LogUniform{Lo: d.Lo, Hi: d.Hi}, nil
	case "triangular":
		if d.Lo > d.Mode || d.Mode > d.Hi {
			return nil, fmt.Errorf("dse: triangular needs lo <= mode <= hi (got %g, %g, %g)", d.Lo, d.Mode, d.Hi)
		}
		return tcdp.Triangular{Lo: d.Lo, Mode: d.Mode, Hi: d.Hi}, nil
	default:
		return nil, fmt.Errorf("dse: unknown distribution kind %q (valid: point, uniform, loguniform, triangular)", d.Kind)
	}
}

// Plan dimensions, in the order Expand crosses them: system, workload,
// grid, the numeric axes in numericAxes order, then the Monte Carlo
// replicas.
const (
	dimSystem = iota
	dimWorkload
	dimGrid
	dimClock
	dimLifetime
	dimYieldD0
	dimM3DYield
	dimM3DEmbodied
	dimCIUse
	dimReplica
	numDims
)

// dimCounts lists the level count of each plan dimension, indexed by
// the dim constants. Defaults count as normalized fills them in. It
// builds no axis.
func (s *Spec) dimCounts() [numDims]int {
	var counts [numDims]int
	counts[dimSystem], counts[dimWorkload], counts[dimGrid] = len(s.Axes.System), len(s.Axes.Workload), 1
	if counts[dimSystem] == 0 {
		counts[dimSystem] = 2 // both bundled systems
	}
	if g := s.Axes.Grid; g != nil {
		counts[dimGrid] = len(g.Names) + len(g.Custom)
		if g.Intensity != nil {
			counts[dimGrid] += g.Intensity.levels()
		}
	}
	for i, a := range s.numericAxes() {
		counts[dimClock+i] = a.levels()
	}
	counts[dimReplica] = 1
	if s.hasDistAxis() {
		counts[dimReplica] = s.Samples
		if counts[dimReplica] == 0 {
			counts[dimReplica] = DefaultSamples
		}
	}
	return counts
}

// numericAxisNames names the numeric axes, in numericAxes order.
var numericAxisNames = []string{
	"clock_mhz", "lifetime_months", "yield_d0", "m3d_yield", "m3d_embodied_scale", "ci_use_scale",
}

// numericAxes lists the spec's numeric axes (nil when absent) in the
// order Expand crosses them.
func (s *Spec) numericAxes() []*NumericAxis {
	return []*NumericAxis{
		s.Axes.ClockMHz, s.Axes.LifetimeMonths, s.Axes.YieldD0,
		s.Axes.M3DYield, s.Axes.M3DEmbodiedScale, s.Axes.CIUseScale,
	}
}

// levels is the length of the axis's level list: one for an absent axis
// and for a distribution, whose level is drawn per replica.
func (a *NumericAxis) levels() int {
	switch {
	case a == nil:
		return 1
	case a.Values != nil:
		return len(a.Values)
	case a.Linspace != nil:
		return a.Linspace.N
	case a.Logspace != nil:
		return a.Logspace.N
	}
	return 1
}

// values expands a non-distribution axis into its ordered level list.
func (a *NumericAxis) values() []float64 {
	switch {
	case a.Values != nil:
		return a.Values
	case a.Linspace != nil:
		return a.Linspace.linspace()
	case a.Logspace != nil:
		return a.Logspace.logspace()
	}
	return nil
}

func (r *Range) linspace() []float64 {
	if r.N == 1 {
		return []float64{r.Lo}
	}
	out := make([]float64, r.N)
	step := (r.Hi - r.Lo) / float64(r.N-1)
	for i := range out {
		out[i] = r.Lo + float64(i)*step
	}
	return out
}

func (r *Range) logspace() []float64 {
	if r.N == 1 {
		return []float64{r.Lo}
	}
	out := make([]float64, r.N)
	ratio := math.Log(r.Hi / r.Lo)
	for i := range out {
		out[i] = r.Lo * math.Exp(ratio*float64(i)/float64(r.N-1))
	}
	return out
}

// validate checks one numeric axis plus an axis-specific value predicate.
func (a *NumericAxis) validate(name string, check func(v float64) error) error {
	forms := 0
	if a.Values != nil {
		forms++
		if len(a.Values) == 0 {
			return fmt.Errorf("dse: axis %s: empty value list", name)
		}
	}
	if a.Linspace != nil {
		forms++
		if a.Linspace.N < 1 {
			return fmt.Errorf("dse: axis %s: linspace needs n >= 1", name)
		}
	}
	if a.Logspace != nil {
		forms++
		if a.Logspace.N < 1 {
			return fmt.Errorf("dse: axis %s: logspace needs n >= 1", name)
		}
		if a.Logspace.Lo <= 0 || a.Logspace.Hi <= 0 {
			return fmt.Errorf("dse: axis %s: logspace bounds must be positive", name)
		}
	}
	if a.Dist != nil {
		forms++
		if _, err := a.Dist.Distribution(); err != nil {
			return fmt.Errorf("axis %s: %w", name, err)
		}
	}
	if forms != 1 {
		return fmt.Errorf("dse: axis %s: give exactly one of values, linspace, logspace, dist", name)
	}
	for _, v := range a.values() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dse: axis %s: level %g is not finite", name, v)
		}
		if err := check(v); err != nil {
			return fmt.Errorf("dse: axis %s: %w", name, err)
		}
	}
	return nil
}

func positive(what string) func(float64) error {
	return func(v float64) error {
		if v <= 0 {
			return fmt.Errorf("%s must be positive (got %g)", what, v)
		}
		return nil
	}
}

// Validate checks the spec without expanding it. The point count is
// checked first, before any axis's levels are built.
func (s *Spec) Validate() error {
	if s.Samples < 0 {
		return errors.New("dse: samples must be non-negative")
	}
	if _, err := s.PointCount(); err != nil {
		return err
	}
	for _, name := range s.Axes.System {
		if _, err := core.CanonicalSystemName(name); err != nil {
			return err
		}
	}
	for _, name := range s.Axes.Workload {
		if _, err := embench.ByName(name); err != nil {
			return err
		}
	}
	if s.UseGrid != "" {
		if _, err := carbon.GridByName(s.UseGrid); err != nil {
			return err
		}
	}
	if g := s.Axes.Grid; g != nil {
		if len(g.Names) == 0 && len(g.Custom) == 0 && g.Intensity == nil {
			return errors.New("dse: grid axis needs names, custom grids, or intensities")
		}
		for _, name := range g.Names {
			if _, err := carbon.GridByName(name); err != nil {
				return err
			}
		}
		for _, c := range g.Custom {
			if c.Name == "" {
				return errors.New("dse: custom grids must be named")
			}
			if c.GPerKWh <= 0 {
				return fmt.Errorf("dse: custom grid %s: intensity must be positive", c.Name)
			}
		}
		if g.Intensity != nil {
			if g.Intensity.Dist != nil {
				return errors.New("dse: grid intensity axis cannot be a distribution")
			}
			if err := g.Intensity.validate("grid.intensity", positive("grid intensity")); err != nil {
				return err
			}
		}
	}
	checks := []func(float64) error{ // in numericAxes order
		positive("clock"),
		positive("lifetime"),
		func(v float64) error {
			if v < 0 {
				return fmt.Errorf("defect density must be non-negative (got %g)", v)
			}
			return nil
		},
		func(v float64) error {
			if v <= 0 || v > 1 {
				return fmt.Errorf("yield must be in (0, 1] (got %g)", v)
			}
			return nil
		},
		positive("embodied scale"),
		positive("CI_use scale"),
	}
	for i, a := range s.numericAxes() {
		if a == nil {
			continue
		}
		if err := a.validate(numericAxisNames[i], checks[i]); err != nil {
			return err
		}
	}
	for _, o := range s.Objectives {
		if !ValidMetric(o.Metric) {
			return fmt.Errorf("dse: unknown objective metric %q (valid: %v)", o.Metric, MetricKeys())
		}
	}
	return nil
}

// normalized returns a copy with every default made explicit: resolved
// full system names, the default workload/grid/lifetime/objectives, and
// the replica count. The normalized spec is what Hash covers, so a spec
// and its fully spelled-out form land on the same sweep job.
func (s *Spec) normalized() (*Spec, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := *s
	if len(n.Axes.System) == 0 {
		n.Axes.System = []string{"si", "m3d"}
	}
	resolved := make([]string, len(n.Axes.System))
	for i, name := range n.Axes.System {
		canonical, err := core.CanonicalSystemName(name)
		if err != nil {
			return nil, err
		}
		resolved[i] = canonical
	}
	n.Axes.System = resolved
	if len(n.Axes.Workload) == 0 {
		n.Axes.Workload = []string{"matmult-int"}
	}
	if n.Axes.Grid == nil {
		n.Axes.Grid = &GridAxis{Names: []string{"US"}}
	}
	if n.UseGrid == "" {
		n.UseGrid = "US"
	}
	if n.Axes.LifetimeMonths == nil {
		n.Axes.LifetimeMonths = &NumericAxis{Values: []float64{24}}
	}
	if n.hasDistAxis() {
		if n.Samples == 0 {
			n.Samples = DefaultSamples
		}
	} else {
		n.Samples = 0
	}
	if len(n.Objectives) == 0 {
		n.Objectives = []Objective{{Metric: "exec_time_s"}, {Metric: "tc_g"}}
	}
	return &n, nil
}

func (s *Spec) hasDistAxis() bool {
	for _, a := range s.numericAxes() {
		if a != nil && a.Dist != nil {
			return true
		}
	}
	return false
}

// Hash is the hex SHA-256 of the normalized spec's canonical JSON — the
// identity sweep jobs are keyed by.
func (s *Spec) Hash() (string, error) {
	n, err := s.normalized()
	if err != nil {
		return "", err
	}
	return n.normalizedHash()
}

// normalizedHash is Hash of a spec normalized already: normalizing is
// idempotent, so a second pass would only repeat work.
func (s *Spec) normalizedHash() (string, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
