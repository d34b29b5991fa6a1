package dse

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
)

func ptr(v float64) *float64 { return &v }

// marshalReference is the line json.Marshal writes, the bytes
// AppendLine must reproduce.
func marshalReference(r *Result) ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// checkLine asserts that AppendLine writes json.Marshal's line, or fails
// with its error, and that it appends to a prefix without touching it.
func checkLine(t *testing.T, name string, r *Result) {
	t.Helper()
	want, werr := marshalReference(r)
	prefix := []byte("prefix")
	got, gerr := r.AppendLine(prefix[:len(prefix):len(prefix)])
	if werr != nil {
		if gerr == nil || gerr.Error() != werr.Error() {
			t.Errorf("%s: AppendLine error %v, json.Marshal error %v", name, gerr, werr)
		}
		if !bytes.Equal(got, prefix) {
			t.Errorf("%s: a failed AppendLine returned %q, want the prefix unchanged", name, got)
		}
		return
	}
	if gerr != nil {
		t.Errorf("%s: AppendLine: %v", name, gerr)
		return
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Errorf("%s:\nAppendLine  %q\njson.Marshal %q", name, got[len(prefix):], want)
	}
}

func TestAppendLineMatchesMarshal(t *testing.T) {
	full := Result{
		Index: 7, Replica: 3, System: "m3d", Workload: "huff", Grid: "US",
		GridGPerKWh: 380, ClockMHz: 500, LifetimeMonths: 24, CIUseScale: 1.25,
		YieldD0: ptr(0.1), M3DYield: ptr(0.5), M3DEmbodiedScale: ptr(1.1),
		Feasible: true, Cycles: 20047423, ExecTimeS: 0.0400948, OperationalPowerMW: 3.21,
		TotalAreaMM2: 0.52, EmbodiedWaferKG: 1234.5, EmbodiedGoodDieG: 3.80, DiesPerWafer: 120000,
		Yield: 0.95, TCG: 27.400000000000002, TCDPGS: 1.0985,
	}
	with := func(f func(*Result)) Result {
		r := full
		f(&r)
		return r
	}
	negZero := math.Copysign(0, -1)
	rows := []struct {
		name string
		r    Result
	}{
		{"zero value", Result{}},
		{"every field set", full},
		{"nil pointers", with(func(r *Result) { r.YieldD0, r.M3DYield, r.M3DEmbodiedScale = nil, nil, nil })},
		{"zero pointees", with(func(r *Result) { r.YieldD0, r.M3DYield, r.M3DEmbodiedScale = ptr(0), ptr(negZero), ptr(0) })},
		{"infeasible, metrics omitted", Result{Index: 1, System: "si", Workload: "crc32", Grid: "Coal", GridGPerKWh: 820,
			ClockMHz: 5000, LifetimeMonths: 24, CIUseScale: 1, Error: "core: timing closure failed at 5000 MHz"}},
		{"negative zero", with(func(r *Result) {
			r.GridGPerKWh, r.ClockMHz, r.ExecTimeS, r.TCG, r.YieldD0 = negZero, negZero, negZero, negZero, ptr(negZero)
		})},
		{"format edges", with(func(r *Result) {
			r.GridGPerKWh, r.ClockMHz, r.LifetimeMonths, r.CIUseScale = 1e-7, 1e-6, 1e21, 5e-324
			r.ExecTimeS, r.OperationalPowerMW, r.TotalAreaMM2 = math.MaxFloat64, -math.MaxFloat64, 9.999999999999999e20
			r.EmbodiedWaferKG, r.EmbodiedGoodDieG, r.Yield = -1e-7, 1.5e-300, 123456789012345680000
			r.TCG, r.TCDPGS = 1e-10, -2.5e25
		})},
		{"negative counters", with(func(r *Result) { r.Index, r.Replica, r.DiesPerWafer = -1, -2, -3 })},
		{"max counters", with(func(r *Result) { r.Index, r.Cycles = math.MaxInt, math.MaxUint64 })},
		{"HTML and quotes", with(func(r *Result) { r.Error = `a <b> & "c" \d` })},
		{"less-than alone", with(func(r *Result) { r.Error = "a<b" })},
		{"greater-than alone", with(func(r *Result) { r.Error = "a>b" })},
		{"ampersand alone", with(func(r *Result) { r.Error = "a&b" })},
		{"backslash alone", with(func(r *Result) { r.Error = `a\b` })},
		{"quote alone", with(func(r *Result) { r.Error = `a"b` })},
		{"control bytes", with(func(r *Result) { r.System, r.Error = "tab\there", "nul\x00 bell\a del\x7f\r\n" })},
		{"line separators", with(func(r *Result) { r.Workload = "x\u2028y\u2029z" })},
		{"non-ASCII", with(func(r *Result) { r.Grid = "Île-de-France ☀" })},
		{"invalid UTF-8", with(func(r *Result) { r.Error = "bad \xff\xfe byte \xc3" })},
		{"NaN", with(func(r *Result) { r.TCG = math.NaN() })},
		{"+Inf", with(func(r *Result) { r.ClockMHz = math.Inf(1) })},
		{"-Inf pointer", with(func(r *Result) { r.M3DYield = ptr(math.Inf(-1)) })},
		{"NaN in an otherwise omitted field", Result{ExecTimeS: math.NaN()}},
	}
	for _, row := range rows {
		checkLine(t, row.name, &row.r)
	}
	// Every float field, pointer or not, rejects NaN and ±Inf.
	rt := reflect.TypeOf(full)
	for i := 0; i < rt.NumField(); i++ {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			r := full
			switch f := reflect.ValueOf(&r).Elem().Field(i); f.Interface().(type) {
			case float64:
				f.SetFloat(bad)
			case *float64:
				f.Set(reflect.ValueOf(ptr(bad)))
			default:
				continue
			}
			checkLine(t, fmt.Sprintf("%s = %v", rt.Field(i).Name, bad), &r)
		}
	}
}

// TestWriteNDJSONBuffersLines checks WriteNDJSON's stream against
// json.Marshal line by line across several 64 KiB chunks, and that it
// allocates once per call rather than once per line.
func TestWriteNDJSONBuffersLines(t *testing.T) {
	results := make([]Result, 2000)
	var want bytes.Buffer
	for i := range results {
		results[i] = Result{
			Index: i, System: "si", Workload: "huff", Grid: "US", GridGPerKWh: 380,
			ClockMHz: 500, LifetimeMonths: float64(i%36 + 1), CIUseScale: 1 + float64(i)/7,
			Feasible: true, Cycles: uint64(1000 + i), ExecTimeS: float64(i) / 3, TCG: float64(i) * 1.1,
		}
		line, err := marshalReference(&results[i])
		if err != nil {
			t.Fatal(err)
		}
		want.Write(line)
	}
	var got bytes.Buffer
	if err := WriteNDJSON(&got, results); err != nil {
		t.Fatal(err)
	}
	if want.Len() < 3*ndjsonChunk {
		t.Fatalf("stream of %d bytes does not span several chunks", want.Len())
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteNDJSON differs from json.Marshal lines")
	}
	if raceEnabled {
		t.Skip("allocation counts under the race detector")
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := WriteNDJSON(io.Discard, results); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("WriteNDJSON of %d results: %.0f allocations, want ≤ 2", len(results), allocs)
	}
}

// writeNDJSONSequential is WriteNDJSON as one Encoder loop on the
// caller: the reference its chunked form must reproduce.
func writeNDJSONSequential(w io.Writer, results []Result) error {
	enc := NewEncoder(w)
	for i := range results {
		if err := enc.Encode(&results[i]); err != nil {
			return err
		}
	}
	return enc.Flush()
}

// randomStream draws n results whose fields come mostly from small
// level sets, so lines repeat, alternate and omit fields (±0, nil
// pointers, infeasible points) within and across chunks.
func randomStream(rng *rand.Rand, n int) []Result {
	negZero := math.Copysign(0, -1)
	levels := []float64{0, negZero, 380, 820, 0.5, 24, 1e-7, 1e21, 3.8}
	draw := func() float64 {
		if rng.IntN(4) == 0 {
			return rng.NormFloat64() * 100
		}
		return levels[rng.IntN(len(levels))]
	}
	drawPtr := func() *float64 {
		if rng.IntN(3) == 0 {
			return nil
		}
		return ptr(draw())
	}
	names := []string{"si", "m3d", "huff", "crc32", "US", `a<b> & "c"`}
	results := make([]Result, n)
	for i := range results {
		results[i] = Result{
			Index: i, Replica: rng.IntN(3), System: names[rng.IntN(2)], Workload: names[2+rng.IntN(2)],
			Grid: names[4+rng.IntN(2)], GridGPerKWh: draw(), ClockMHz: draw(), LifetimeMonths: draw(),
			CIUseScale: draw(), YieldD0: drawPtr(), M3DYield: drawPtr(), M3DEmbodiedScale: drawPtr(),
			Feasible: rng.IntN(8) != 0, Cycles: uint64(rng.IntN(3)) * 20047423,
			ExecTimeS: draw(), OperationalPowerMW: draw(), TotalAreaMM2: draw(), EmbodiedWaferKG: draw(),
			EmbodiedGoodDieG: draw(), DiesPerWafer: rng.IntN(2) * 120000, Yield: draw(), TCG: draw(), TCDPGS: draw(),
		}
		if !results[i].Feasible {
			results[i].Error = "core: timing closure failed"
		}
	}
	return results
}

// TestWriteNDJSONMatchesEncoder pins WriteNDJSON, chunked across every P
// or serial on the caller, to one sequential Encoder loop at GOMAXPROCS
// 1, 2 and 4: the same bytes over 0, 1, chunk−1, chunk, chunk+1 and
// many chunks of lines, and with a NaN or ±Inf at the first line,
// mid-chunk, on either side of a chunk boundary and at the last line,
// the same error with the same bytes written before it.
func TestWriteNDJSONMatchesEncoder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewPCG(30, 2))
	const c = ndjsonChunkLines
	check := func(label string, results []Result) {
		t.Helper()
		var got, want bytes.Buffer
		werr := writeNDJSONSequential(&want, results)
		gerr := WriteNDJSON(&got, results)
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("%s: WriteNDJSON error %v, Encoder loop error %v", label, gerr, werr)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: WriteNDJSON wrote %d bytes, the Encoder loop %d; they differ", label, got.Len(), want.Len())
		}
	}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, c - 1, c, c + 1, 9*c + 17} {
			results := randomStream(rng, n)
			check(fmt.Sprintf("GOMAXPROCS %d, %d results", procs, n), results)
			for _, at := range []int{0, c / 2, c - 1, c, n - 1} {
				if at < 0 || at >= n {
					continue
				}
				for _, bad := range []func(*Result){
					func(r *Result) { r.TCG = math.NaN() },
					func(r *Result) { r.M3DYield = ptr(math.Inf(-1)) },
					func(r *Result) { r.GridGPerKWh = math.Inf(1) },
				} {
					planted := slices.Clone(results)
					bad(&planted[at])
					check(fmt.Sprintf("GOMAXPROCS %d, %d results, bad value at %d", procs, n, at), planted)
				}
			}
		}
	}
}

// errWriteFailed is failingWriter's error.
var errWriteFailed = errors.New("write failed")

// failingWriter keeps what it is written and fails its failAt-th Write
// (never when failAt is 0) and every one after.
type failingWriter struct {
	buf            bytes.Buffer
	writes, failAt int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.failAt > 0 && w.writes >= w.failAt {
		return 0, errWriteFailed
	}
	return w.buf.Write(p)
}

// TestWriteNDJSONWriteFailure fails the writer on its k-th Write, for
// the first, second, a middle and the last Write of a many-chunk stream
// at GOMAXPROCS 1, 2 and 4: WriteNDJSON returns the writer's error after
// one failed Write, having written a prefix of the stream, and leaves no
// goroutine running.
func TestWriteNDJSONWriteFailure(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	results := randomStream(rand.New(rand.NewPCG(30, 3)), 20*ndjsonChunkLines+5)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		var full failingWriter
		if err := WriteNDJSON(&full, results); err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, full.writes / 2, full.writes} {
			before := runtime.NumGoroutine()
			w := failingWriter{failAt: k}
			if err := WriteNDJSON(&w, results); !errors.Is(err, errWriteFailed) {
				t.Fatalf("GOMAXPROCS %d, failing Write %d of %d: error %v", procs, k, full.writes, err)
			}
			if w.writes != k {
				t.Errorf("GOMAXPROCS %d, failing Write %d: %d Writes, want the failed one last", procs, k, w.writes)
			}
			if !bytes.HasPrefix(full.buf.Bytes(), w.buf.Bytes()) {
				t.Errorf("GOMAXPROCS %d, failing Write %d: the bytes written are not a prefix of the stream", procs, k)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("GOMAXPROCS %d, failing Write %d: %d goroutines after WriteNDJSON, %d before", procs, k, n, before)
			}
		}
	}
}

// TestWriteNDJSONConcurrentAllocs pins the chunked path's allocations at
// GOMAXPROCS 2, where testing.AllocsPerRun (which runs at GOMAXPROCS 1)
// never takes it: a fixed budget for 4 chunks and for 64, so the count
// does not grow with the results.
func TestWriteNDJSONConcurrentAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const budget = 24
	for _, chunks := range []int{4, 64} {
		results := randomStream(rand.New(rand.NewPCG(30, 4)), chunks*ndjsonChunkLines)
		for i := range results {
			results[i].Grid = "US" // a name json.Marshal would escape allocates per line
		}
		write := func() {
			if err := WriteNDJSON(io.Discard, results); err != nil {
				t.Fatal(err)
			}
		}
		write() // warm the chunk buffer pool
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			write()
		}
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / runs
		t.Logf("%d chunks: %.1f allocations per WriteNDJSON", chunks, allocs)
		if allocs > budget {
			t.Errorf("WriteNDJSON of %d chunks at GOMAXPROCS 2: %.1f allocations, want ≤ %d", chunks, allocs, budget)
		}
	}
}

// TestEncoderReusesOnlyEqualBits streams lines that repeat, alternate
// and omit fields through one Encoder, whose float fields copy their
// last bytes when the bits repeat: every line must still be
// json.Marshal's. ±0 differ in bits and print apart, omitted zeros
// leave a field's last bytes in place for the line after, and a NaN in
// a field just reused fails with json.Marshal's error, leaving the
// lines before it exactly as they were and the encoder usable.
func TestEncoderReusesOnlyEqualBits(t *testing.T) {
	negZero := math.Copysign(0, -1)
	base := Result{
		Index: 1, System: "si", Workload: "huff", Grid: "US", GridGPerKWh: 380, ClockMHz: 500,
		LifetimeMonths: 24, CIUseScale: 1.25, M3DYield: ptr(0.5), Feasible: true, Cycles: 9,
		ExecTimeS: 0.04, OperationalPowerMW: 3.21, TotalAreaMM2: 0.52, EmbodiedWaferKG: 1234.5,
		EmbodiedGoodDieG: 3.8, DiesPerWafer: 7, Yield: 0.95, TCG: 27.4, TCDPGS: 1.0985,
	}
	alt := base
	alt.GridGPerKWh, alt.CIUseScale, alt.M3DYield, alt.TCG = 820, 0.7, ptr(0.9), 31.5
	with := func(r Result, f func(*Result)) Result { f(&r); return r }
	lines := []Result{
		base, base, alt, base, alt, alt,
		with(base, func(r *Result) { r.GridGPerKWh, r.ClockMHz = 0, negZero }),
		with(base, func(r *Result) { r.GridGPerKWh, r.ClockMHz = negZero, 0 }),
		with(base, func(r *Result) { r.GridGPerKWh, r.ClockMHz = negZero, 0 }),
		with(base, func(r *Result) { r.ExecTimeS, r.TCG, r.M3DYield = 0, negZero, nil }),
		base,
		with(base, func(r *Result) { r.M3DYield, r.YieldD0 = ptr(negZero), ptr(0) }),
		with(base, func(r *Result) { r.M3DYield, r.YieldD0 = ptr(0), ptr(negZero) }),
		with(base, func(r *Result) { r.Feasible, r.Error, r.ExecTimeS, r.TCG, r.TCDPGS = false, "x", 0, 0, 0 }),
		base,
	}
	var got, want bytes.Buffer
	enc := NewEncoder(&got)
	for i := range lines {
		line, err := marshalReference(&lines[i])
		if err != nil {
			t.Fatal(err)
		}
		want.Write(line)
		if err := enc.Encode(&lines[i]); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
	}
	// A NaN where the line before reused TCG's bytes.
	bad := with(base, func(r *Result) { r.TCG = math.NaN() })
	_, werr := marshalReference(&bad)
	if err := enc.Encode(&bad); err == nil || werr == nil || err.Error() != werr.Error() {
		t.Fatalf("NaN line: Encode error %v, json.Marshal error %v", err, werr)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Encoder lines before the error differ from json.Marshal's:\n got %s\nwant %s", got.Bytes(), want.Bytes())
	}
	// The encoder goes on after the error, its remembered bytes intact.
	for _, r := range []Result{base, alt, base} {
		line, _ := marshalReference(&r)
		want.Write(line)
		if err := enc.Encode(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Encoder lines after the error differ from json.Marshal's:\n got %s\nwant %s", got.Bytes(), want.Bytes())
	}
}

// FuzzResultLine: for fuzzed field values AppendLine writes json.Marshal's
// line or both fail, and the line reads back through ReadNDJSON to the
// fields written (strings as json.Marshal coerces them to UTF-8).
func FuzzResultLine(f *testing.F) {
	f.Add(7, 3, "m3d", "huff", "US", "", true, uint64(20047423), 380.0, 500.0, 1e-7, 1e21, uint16(0xffff))
	f.Add(0, 0, "si", "crc32", "Coal", "core: timing <closure> & \"fail\"", false, uint64(0), math.Copysign(0, -1), 5e-324, math.MaxFloat64, -1e-6, uint16(0))
	f.Add(-1, 1, "\xff", "\u2028", "\x00", "\\", true, uint64(math.MaxUint64), math.NaN(), math.Inf(1), 1.0, 2.0, uint16(0x5555))
	f.Fuzz(func(t *testing.T, index, replica int, system, workload, grid, errStr string, feasible bool,
		cycles uint64, a, b, c, d float64, mask uint16) {
		vals := [4]float64{a, b, c, d}
		pick := func(bit int) float64 { // bit-selected zero or value
			if mask&(1<<bit) == 0 {
				return 0
			}
			return vals[bit%4]
		}
		pickPtr := func(bit int) *float64 {
			if mask&(1<<bit) == 0 {
				return nil
			}
			return ptr(vals[bit%4])
		}
		r := Result{
			Index: index, Replica: replica, System: system, Workload: workload, Grid: grid,
			GridGPerKWh: a, ClockMHz: b, LifetimeMonths: c, CIUseScale: d,
			YieldD0: pickPtr(0), M3DYield: pickPtr(1), M3DEmbodiedScale: pickPtr(2),
			Feasible: feasible, Error: errStr, Cycles: cycles,
			ExecTimeS: pick(3), OperationalPowerMW: pick(4), TotalAreaMM2: pick(5),
			EmbodiedWaferKG: pick(6), EmbodiedGoodDieG: pick(7), DiesPerWafer: int(mask >> 12),
			Yield: pick(9), TCG: pick(10), TCDPGS: pick(11),
		}
		// A second line through WriteNDJSON after r: a and b swap, and
		// the rotated mask moves which fields are zero or absent, so the
		// encoder meets repeated, alternated and omitted fields.
		vals, mask = [4]float64{b, a, c, d}, mask>>1|mask<<15
		r2 := r
		r2.GridGPerKWh, r2.ClockMHz = b, a
		r2.YieldD0, r2.M3DYield, r2.M3DEmbodiedScale = pickPtr(0), pickPtr(1), pickPtr(2)
		r2.ExecTimeS, r2.OperationalPowerMW, r2.TotalAreaMM2 = pick(3), pick(4), pick(5)
		r2.EmbodiedWaferKG, r2.EmbodiedGoodDieG, r2.Yield, r2.TCG, r2.TCDPGS = pick(6), pick(7), pick(9), pick(10), pick(11)
		want2, werr2 := marshalReference(&r2)
		var stream bytes.Buffer
		serr := WriteNDJSON(&stream, []Result{r, r2})
		want, werr := marshalReference(&r)
		firstErr := werr
		if firstErr == nil {
			firstErr = werr2
		}
		if firstErr != nil {
			// The error ends the stream before its buffer is written.
			if serr == nil || serr.Error() != firstErr.Error() || stream.Len() != 0 {
				t.Fatalf("WriteNDJSON wrote %q, error %v; json.Marshal error %v", stream.Bytes(), serr, firstErr)
			}
		} else if serr != nil || !bytes.Equal(stream.Bytes(), append(append([]byte(nil), want...), want2...)) {
			t.Fatalf("WriteNDJSON %q, %v\njson.Marshal %q%q", stream.Bytes(), serr, want, want2)
		}
		got, gerr := r.AppendLine(nil)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("AppendLine error %v, json.Marshal error %v", gerr, werr)
		}
		if werr != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendLine  %q\njson.Marshal %q", got, want)
		}
		back, err := ReadNDJSON(bytes.NewReader(got))
		if err != nil || len(back) != 1 {
			t.Fatalf("ReadNDJSON(%q) = %d results, %v", got, len(back), err)
		}
		for _, s := range []*string{&r.System, &r.Workload, &r.Grid, &r.Error} {
			*s = string([]rune(*s)) // invalid bytes → U+FFFD, as encoding/json writes them
		}
		if !reflect.DeepEqual(back[0], r) {
			t.Fatalf("round trip:\nwrote %+v\nread  %+v", r, back[0])
		}
	})
}
