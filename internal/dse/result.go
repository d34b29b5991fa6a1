package dse

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Result is one evaluated point: the resolved axis coordinate echoed
// back, plus the PPAtC and carbon-efficiency metrics. The JSON encoding
// is one NDJSON line of `ppatc sweep` and GET /v1/sweeps/{id}/results;
// field order is fixed, so identical sweeps are byte-identical.
type Result struct {
	Index   int `json:"index"`
	Replica int `json:"replica,omitempty"`

	System           string   `json:"system"`
	Workload         string   `json:"workload"`
	Grid             string   `json:"grid"`
	GridGPerKWh      float64  `json:"grid_g_per_kwh"`
	ClockMHz         float64  `json:"clock_mhz"`
	LifetimeMonths   float64  `json:"lifetime_months"`
	CIUseScale       float64  `json:"ci_use_scale"`
	YieldD0          *float64 `json:"yield_d0,omitempty"`
	M3DYield         *float64 `json:"m3d_yield,omitempty"`
	M3DEmbodiedScale *float64 `json:"m3d_embodied_scale,omitempty"`

	// Feasible is false when the point fails timing closure (a sweep
	// datum, not an error) — its metrics are zero and Error explains.
	Feasible bool   `json:"feasible"`
	Error    string `json:"error,omitempty"`

	Cycles             uint64  `json:"cycles,omitempty"`
	ExecTimeS          float64 `json:"exec_time_s,omitempty"`
	OperationalPowerMW float64 `json:"operational_power_mw,omitempty"`
	TotalAreaMM2       float64 `json:"total_area_mm2,omitempty"`
	EmbodiedWaferKG    float64 `json:"embodied_per_wafer_kg,omitempty"`
	EmbodiedGoodDieG   float64 `json:"embodied_per_good_die_g,omitempty"`
	DiesPerWafer       int     `json:"dies_per_wafer,omitempty"`
	Yield              float64 `json:"yield,omitempty"`
	TCG                float64 `json:"tc_g,omitempty"`
	TCDPGS             float64 `json:"tcdp_gs,omitempty"`
}

// metricKeys maps every addressable metric to its accessor, in the order
// MetricKeys reports.
var metricKeys = []struct {
	key string
	get func(*Result) float64
}{
	{"exec_time_s", func(r *Result) float64 { return r.ExecTimeS }},
	{"operational_power_mw", func(r *Result) float64 { return r.OperationalPowerMW }},
	{"total_area_mm2", func(r *Result) float64 { return r.TotalAreaMM2 }},
	{"embodied_per_wafer_kg", func(r *Result) float64 { return r.EmbodiedWaferKG }},
	{"embodied_per_good_die_g", func(r *Result) float64 { return r.EmbodiedGoodDieG }},
	{"dies_per_wafer", func(r *Result) float64 { return float64(r.DiesPerWafer) }},
	{"yield", func(r *Result) float64 { return r.Yield }},
	{"tc_g", func(r *Result) float64 { return r.TCG }},
	{"tcdp_gs", func(r *Result) float64 { return r.TCDPGS }},
	{"cycles", func(r *Result) float64 { return float64(r.Cycles) }},
	{"clock_mhz", func(r *Result) float64 { return r.ClockMHz }},
	{"grid_g_per_kwh", func(r *Result) float64 { return r.GridGPerKWh }},
	{"lifetime_months", func(r *Result) float64 { return r.LifetimeMonths }},
}

// MetricKeys lists the metric names addressable by objectives,
// sensitivity and winner analyses.
func MetricKeys() []string {
	out := make([]string, len(metricKeys))
	for i, m := range metricKeys {
		out[i] = m.key
	}
	return out
}

// ValidMetric reports whether key names a Result metric.
func ValidMetric(key string) bool {
	_, ok := metricGetter(key)
	return ok
}

// metricGetter returns the accessor of the metric named key.
func metricGetter(key string) (func(*Result) float64, bool) {
	for _, m := range metricKeys {
		if m.key == key {
			return m.get, true
		}
	}
	return nil, false
}

// Metric reads one metric by key; ok is false for unknown keys.
func (r *Result) Metric(key string) (v float64, ok bool) {
	get, ok := metricGetter(key)
	if !ok {
		return 0, false
	}
	return get(r), true
}

// groupKey identifies the point's coordinate with the system axis erased
// — results sharing a key are paired observations of different systems.
func (r *Result) groupKey() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|%s|%g|%g|%g|%d", r.Workload, r.Grid, r.ClockMHz, r.LifetimeMonths, r.CIUseScale, r.Replica)
	for _, p := range []*float64{r.YieldD0, r.M3DYield, r.M3DEmbodiedScale} {
		if p == nil {
			sb.WriteString("|-")
		} else {
			fmt.Fprintf(&sb, "|%g", *p)
		}
	}
	return sb.String()
}

// MarshalLine encodes the result as one compact NDJSON line (with the
// trailing newline). Sweep lines run to about 600 bytes; the buffer
// holds one in a single allocation.
func (r *Result) MarshalLine() ([]byte, error) {
	return r.AppendLine(make([]byte, 0, 640))
}

// AppendLine appends the result's NDJSON line (with the trailing
// newline) to b. The bytes are exactly json.Marshal's: fields in struct
// order under the same omitempty rules and floats in encoding/json's
// format. A NaN or ±Inf field is an error, as it is for json.Marshal,
// and b is then returned unextended.
func (r *Result) AppendLine(b []byte) ([]byte, error) {
	for _, v := range [...]*float64{
		&r.GridGPerKWh, &r.ClockMHz, &r.LifetimeMonths, &r.CIUseScale,
		r.YieldD0, r.M3DYield, r.M3DEmbodiedScale,
		&r.ExecTimeS, &r.OperationalPowerMW, &r.TotalAreaMM2, &r.EmbodiedWaferKG,
		&r.EmbodiedGoodDieG, &r.Yield, &r.TCG, &r.TCDPGS,
	} {
		if v != nil && (math.IsNaN(*v) || math.IsInf(*v, 0)) {
			return b, &json.UnsupportedValueError{Value: reflect.ValueOf(*v), Str: strconv.FormatFloat(*v, 'g', -1, 64)}
		}
	}
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(r.Index), 10)
	if r.Replica != 0 {
		b = append(b, `,"replica":`...)
		b = strconv.AppendInt(b, int64(r.Replica), 10)
	}
	b = appendJSONString(append(b, `,"system":`...), r.System)
	b = appendJSONString(append(b, `,"workload":`...), r.Workload)
	b = appendJSONString(append(b, `,"grid":`...), r.Grid)
	b = appendJSONFloat(append(b, `,"grid_g_per_kwh":`...), r.GridGPerKWh)
	b = appendJSONFloat(append(b, `,"clock_mhz":`...), r.ClockMHz)
	b = appendJSONFloat(append(b, `,"lifetime_months":`...), r.LifetimeMonths)
	b = appendJSONFloat(append(b, `,"ci_use_scale":`...), r.CIUseScale)
	b = appendFloatPtr(b, `,"yield_d0":`, r.YieldD0)
	b = appendFloatPtr(b, `,"m3d_yield":`, r.M3DYield)
	b = appendFloatPtr(b, `,"m3d_embodied_scale":`, r.M3DEmbodiedScale)
	b = strconv.AppendBool(append(b, `,"feasible":`...), r.Feasible)
	if r.Error != "" {
		b = appendJSONString(append(b, `,"error":`...), r.Error)
	}
	if r.Cycles != 0 {
		b = strconv.AppendUint(append(b, `,"cycles":`...), r.Cycles, 10)
	}
	b = appendNonZero(b, `,"exec_time_s":`, r.ExecTimeS)
	b = appendNonZero(b, `,"operational_power_mw":`, r.OperationalPowerMW)
	b = appendNonZero(b, `,"total_area_mm2":`, r.TotalAreaMM2)
	b = appendNonZero(b, `,"embodied_per_wafer_kg":`, r.EmbodiedWaferKG)
	b = appendNonZero(b, `,"embodied_per_good_die_g":`, r.EmbodiedGoodDieG)
	if r.DiesPerWafer != 0 {
		b = strconv.AppendInt(append(b, `,"dies_per_wafer":`...), int64(r.DiesPerWafer), 10)
	}
	b = appendNonZero(b, `,"yield":`, r.Yield)
	b = appendNonZero(b, `,"tc_g":`, r.TCG)
	b = appendNonZero(b, `,"tcdp_gs":`, r.TCDPGS)
	return append(b, '}', '\n'), nil
}

// appendNonZero appends an omitempty float field: key and v, unless v is
// zero of either sign (encoding/json's omitempty test is v == 0).
func appendNonZero(b []byte, key string, v float64) []byte {
	if v == 0 {
		return b
	}
	return appendJSONFloat(append(b, key...), v)
}

// appendFloatPtr appends an omitempty pointer field: key and *v, unless
// v is nil.
func appendFloatPtr(b []byte, key string, v *float64) []byte {
	if v == nil {
		return b
	}
	return appendJSONFloat(append(b, key...), *v)
}

// appendJSONFloat formats v as encoding/json does: the shortest 'f'
// form, or 'e' below 1e-6 and from 1e21 in magnitude with a one-digit
// negative exponent written without its leading zero (e-7, not e-07).
func appendJSONFloat(b []byte, v float64) []byte {
	abs := math.Abs(v)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString quotes s as json.Marshal does. Printable ASCII other
// than the quote, the backslash and the HTML-escaped <, > and & is
// copied as is; any other string goes through json.Marshal itself, so
// control bytes, HTML-safe escapes, U+2028/U+2029 and invalid UTF-8
// come out exactly as encoding/json writes them.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// ndjsonChunk is how many encoded bytes WriteNDJSON gathers per Write.
const ndjsonChunk = 64 << 10

// WriteNDJSON streams results as newline-delimited JSON, encoding every
// line into one reused buffer that is written out about every 64 KiB.
func WriteNDJSON(w io.Writer, results []Result) error {
	buf := make([]byte, 0, ndjsonChunk+4<<10)
	for i := range results {
		var err error
		if buf, err = results[i].AppendLine(buf); err != nil {
			return err
		}
		if len(buf) >= ndjsonChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) == 0 {
		return nil
	}
	_, err := w.Write(buf)
	return err
}

// ReadNDJSON decodes a stream written by WriteNDJSON.
func ReadNDJSON(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var res Result
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			return nil, fmt.Errorf("dse: bad NDJSON line: %w", err)
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
