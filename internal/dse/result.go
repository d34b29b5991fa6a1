package dse

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

// AppendLine appends the result's NDJSON line (with the trailing
// newline) to b. The bytes are exactly json.Marshal's: fields in struct
// order under the same omitempty rules and floats in encoding/json's
// format. A NaN or ±Inf field is an error, as it is for json.Marshal,
// and b is then returned unextended.
func (r *Result) AppendLine(b []byte) ([]byte, error) {
	return (*lineEncoder)(nil).appendLine(b, r)
}

// Float fields in line order: lineEncoder's slots.
const (
	fGrid = iota
	fClock
	fLifetime
	fCIUse
	fYieldD0
	fM3DYield
	fM3DEmbodied
	fExecTime
	fPower
	fArea
	fWafer
	fGoodDie
	fYield
	fTC
	fTCDP
	numFloatFields
)

// lineEncoder writes AppendLine's bytes, remembering each float field's
// last bits and formatted bytes: a sweep's lines repeat their tuple's
// values, so a field whose bits equal the line before copies its bytes
// instead of formatting them again. A nil *lineEncoder remembers
// nothing, which is AppendLine.
type lineEncoder struct {
	last [numFloatFields]floatText
}

// floatText is one float field's last formatted value; n == 0 when
// there is none.
type floatText struct {
	bits uint64
	n    uint8
	text [25]byte // the longest encoding/json float, -0.0000012345678901234567
}

func (e *lineEncoder) appendLine(b []byte, r *Result) ([]byte, error) {
	if v, ok := r.nonFinite(); ok {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(v), Str: strconv.FormatFloat(v, 'g', -1, 64)}
	}
	return e.appendFinite(b, r), nil
}

// nonFinite returns r's first NaN or ±Inf float field in line order;
// ok is false when every field is finite, the one condition under
// which appendLine fails.
func (r *Result) nonFinite() (v float64, ok bool) {
	// x−x is 0 for a finite x and NaN for NaN and ±Inf, so one sum
	// clears a finite result without a branch per field.
	diff := func(p *float64) float64 {
		if p == nil {
			return 0
		}
		return *p - *p
	}
	z := (r.GridGPerKWh - r.GridGPerKWh) + (r.ClockMHz - r.ClockMHz) + (r.LifetimeMonths - r.LifetimeMonths) +
		(r.CIUseScale - r.CIUseScale) + diff(r.YieldD0) + diff(r.M3DYield) + diff(r.M3DEmbodiedScale) +
		(r.ExecTimeS - r.ExecTimeS) + (r.OperationalPowerMW - r.OperationalPowerMW) + (r.TotalAreaMM2 - r.TotalAreaMM2) +
		(r.EmbodiedWaferKG - r.EmbodiedWaferKG) + (r.EmbodiedGoodDieG - r.EmbodiedGoodDieG) + (r.Yield - r.Yield) +
		(r.TCG - r.TCG) + (r.TCDPGS - r.TCDPGS)
	if z == 0 {
		return 0, false
	}
	for _, p := range [...]*float64{
		&r.GridGPerKWh, &r.ClockMHz, &r.LifetimeMonths, &r.CIUseScale,
		r.YieldD0, r.M3DYield, r.M3DEmbodiedScale,
		&r.ExecTimeS, &r.OperationalPowerMW, &r.TotalAreaMM2, &r.EmbodiedWaferKG,
		&r.EmbodiedGoodDieG, &r.Yield, &r.TCG, &r.TCDPGS,
	} {
		if p != nil && (math.IsNaN(*p) || math.IsInf(*p, 0)) {
			return *p, true
		}
	}
	return 0, false
}

// appendFinite appends the line of a result whose float fields are all
// finite.
func (e *lineEncoder) appendFinite(b []byte, r *Result) []byte {
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(r.Index), 10)
	if r.Replica != 0 {
		b = append(b, `,"replica":`...)
		b = strconv.AppendInt(b, int64(r.Replica), 10)
	}
	b = appendJSONString(append(b, `,"system":`...), r.System)
	b = appendJSONString(append(b, `,"workload":`...), r.Workload)
	b = appendJSONString(append(b, `,"grid":`...), r.Grid)
	b = e.appendFloat(append(b, `,"grid_g_per_kwh":`...), fGrid, r.GridGPerKWh)
	b = e.appendFloat(append(b, `,"clock_mhz":`...), fClock, r.ClockMHz)
	b = e.appendFloat(append(b, `,"lifetime_months":`...), fLifetime, r.LifetimeMonths)
	b = e.appendFloat(append(b, `,"ci_use_scale":`...), fCIUse, r.CIUseScale)
	b = e.appendFloatPtr(b, `,"yield_d0":`, fYieldD0, r.YieldD0)
	b = e.appendFloatPtr(b, `,"m3d_yield":`, fM3DYield, r.M3DYield)
	b = e.appendFloatPtr(b, `,"m3d_embodied_scale":`, fM3DEmbodied, r.M3DEmbodiedScale)
	b = strconv.AppendBool(append(b, `,"feasible":`...), r.Feasible)
	if r.Error != "" {
		b = appendJSONString(append(b, `,"error":`...), r.Error)
	}
	if r.Cycles != 0 {
		b = strconv.AppendUint(append(b, `,"cycles":`...), r.Cycles, 10)
	}
	b = e.appendNonZero(b, `,"exec_time_s":`, fExecTime, r.ExecTimeS)
	b = e.appendNonZero(b, `,"operational_power_mw":`, fPower, r.OperationalPowerMW)
	b = e.appendNonZero(b, `,"total_area_mm2":`, fArea, r.TotalAreaMM2)
	b = e.appendNonZero(b, `,"embodied_per_wafer_kg":`, fWafer, r.EmbodiedWaferKG)
	b = e.appendNonZero(b, `,"embodied_per_good_die_g":`, fGoodDie, r.EmbodiedGoodDieG)
	if r.DiesPerWafer != 0 {
		b = strconv.AppendInt(append(b, `,"dies_per_wafer":`...), int64(r.DiesPerWafer), 10)
	}
	b = e.appendNonZero(b, `,"yield":`, fYield, r.Yield)
	b = e.appendNonZero(b, `,"tc_g":`, fTC, r.TCG)
	b = e.appendNonZero(b, `,"tcdp_gs":`, fTCDP, r.TCDPGS)
	return append(b, '}', '\n')
}

// appendFloat appends the float field in slot as appendJSONFloat
// formats it, copying the slot's last bytes when v has its last bits.
func (e *lineEncoder) appendFloat(b []byte, slot int, v float64) []byte {
	if e == nil {
		return appendJSONFloat(b, v)
	}
	last, bits := &e.last[slot], math.Float64bits(v)
	if last.n != 0 && last.bits == bits {
		return append(b, last.text[:last.n]...)
	}
	start := len(b)
	b = appendJSONFloat(b, v)
	if n := len(b) - start; n <= len(last.text) {
		last.bits, last.n = bits, uint8(copy(last.text[:], b[start:]))
	}
	return b
}

// appendNonZero appends an omitempty float field: key and v, unless v is
// zero of either sign (encoding/json's omitempty test is v == 0).
func (e *lineEncoder) appendNonZero(b []byte, key string, slot int, v float64) []byte {
	if v == 0 {
		return b
	}
	return e.appendFloat(append(b, key...), slot, v)
}

// appendFloatPtr appends an omitempty pointer field: key and *v, unless
// v is nil.
func (e *lineEncoder) appendFloatPtr(b []byte, key string, slot int, v *float64) []byte {
	if v == nil {
		return b
	}
	return e.appendFloat(append(b, key...), slot, *v)
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

// ndjsonChunk is how many encoded bytes an Encoder gathers per Write.
const ndjsonChunk = 64 << 10

// Encoder writes results as NDJSON lines, AppendLine's bytes, into one
// reused buffer that it writes out about every 64 KiB and on Flush.
// Float values repeated from the line before are copied, not formatted
// again. An Encoder serves one stream and is not safe for concurrent
// use.
type Encoder struct {
	w    io.Writer
	buf  []byte
	line lineEncoder
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Encode buffers r's line, writing the buffer out once it holds 64 KiB.
// A result that cannot be encoded returns json.Marshal's error and
// buffers nothing; the lines before it stay buffered for Flush.
func (e *Encoder) Encode(r *Result) error {
	var err error
	if e.buf, err = e.line.appendLine(e.buf, r); err != nil {
		return err
	}
	if len(e.buf) >= ndjsonChunk {
		return e.Flush()
	}
	return nil
}

// Flush writes out the buffered lines.
func (e *Encoder) Flush() error {
	if len(e.buf) == 0 {
		return nil
	}
	_, err := e.w.Write(e.buf)
	e.buf = e.buf[:0]
	return err
}

// WriteNDJSON writes results as newline-delimited JSON, the bytes one
// Encoder would write. Encoding runs on every P: GOMAXPROCS workers
// claim chunks of ndjsonChunkLines results through a shared cursor and
// encode them into pooled buffers, and the caller writes the chunks to
// w in index order, each with one Write. At most two chunks per worker
// are in flight, and every worker has returned before WriteNDJSON does,
// a failed Write included; that Write's error is returned.
//
// At GOMAXPROCS 1, on fewer than two chunks, or when a result cannot be
// encoded, the caller encodes the whole range through one Encoder
// instead. A result that cannot be encoded ends the stream with
// json.Marshal's error, leaving the lines buffered before it unwritten.
func WriteNDJSON(w io.Writer, results []Result) error {
	chunks := (len(results) + ndjsonChunkLines - 1) / ndjsonChunkLines
	workers := min(runtime.GOMAXPROCS(0), chunks)
	if workers < 2 || !allFinite(results) {
		return writeNDJSONSerial(w, results)
	}
	return writeNDJSONChunks(w, results, workers, chunks)
}

// ndjsonChunkLines is how many results a WriteNDJSON worker encodes per
// claim.
const ndjsonChunkLines = 256

// allFinite reports whether every result encodes: the pre-scan that
// lets WriteNDJSON's workers encode without an error path.
func allFinite(results []Result) bool {
	for i := range results {
		if _, bad := results[i].nonFinite(); bad {
			return false
		}
	}
	return true
}

// writeNDJSONSerial streams results through one Encoder on the caller.
func writeNDJSONSerial(w io.Writer, results []Result) error {
	enc := Encoder{w: w, buf: make([]byte, 0, ndjsonChunk+4<<10)}
	for i := range results {
		if err := enc.Encode(&results[i]); err != nil {
			return err
		}
	}
	return enc.Flush()
}

// chunkBufs holds WriteNDJSON's chunk buffers between chunks and calls.
var chunkBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 2*ndjsonChunk)
	return &b
}}

// writeNDJSONChunks encodes results, every one finite, on workers
// goroutines and writes its chunks in index order. Chunk c travels
// through slots[c%len(slots)]; a worker takes a token before it claims
// a chunk and the writer returns it once the chunk is written, so at
// most len(slots) chunks are claimed and not yet written, and no two of
// them share a slot. Each worker keeps its
// lineEncoder across the chunks it claims: the encoder copies only
// text it formatted for equal bits, so any line order is safe.
func writeNDJSONChunks(w io.Writer, results []Result, workers, chunks int) error {
	slots := make([]chan *[]byte, 2*workers)
	for i := range slots {
		slots[i] = make(chan *[]byte, 1)
	}
	tokens := make(chan struct{}, len(slots))
	stop := make(chan struct{})
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			var enc lineEncoder
			for {
				select {
				case tokens <- struct{}{}:
				case <-stop:
					return
				}
				c := int(cursor.Add(1)) - 1
				if c >= chunks {
					return // every chunk is claimed; the writer needs no token back
				}
				chunk := results[c*ndjsonChunkLines : min((c+1)*ndjsonChunkLines, len(results))]
				buf := chunkBufs.Get().(*[]byte)
				b := (*buf)[:0]
				for i := range chunk {
					b = enc.appendFinite(b, &chunk[i])
				}
				*buf = b
				slots[c%len(slots)] <- buf
			}
		}()
	}
	var err error
	for c := 0; c < chunks && err == nil; c++ {
		buf := <-slots[c%len(slots)]
		_, err = w.Write(*buf)
		chunkBufs.Put(buf)
		<-tokens
	}
	close(stop)
	wg.Wait()
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
