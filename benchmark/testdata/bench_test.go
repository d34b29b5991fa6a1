package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"ppatc/internal/carbon"
	"ppatc/internal/core"
	"ppatc/internal/embench"
)

var update = flag.Bool("update", false, "rewrite golden.json from the current outputs")

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// benchmark must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestMetricNamesMatchBenchmarkJSON checks that the report printed for
// each vocabulary carries exactly BENCHMARK.json's metrics with its
// units, and that the workloads agree too.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	declared := func(list []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		m := make(map[string]string)
		for _, d := range list {
			m[d.Name] = d.Unit
		}
		return m
	}
	for _, tc := range []struct {
		name  string
		vocab []metricDef
		want  map[string]string
	}{
		{"end_to_end", endToEnd, declared(bj.EndToEnd)},
		{"per_layer", perLayer, declared(bj.PerLayer)},
	} {
		var out bytes.Buffer
		if err := writeReport(&out, "test", 1, newResult(), tc.vocab); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var rep jsonReport
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			t.Fatal(err)
		}
		got := make(map[string]string)
		for name, m := range rep.Metrics {
			got[name] = m.Unit
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: printed %v, BENCHMARK.json declares %v", tc.name, got, tc.want)
		}
		for _, line := range lines[1 : len(lines)-1] {
			if f := strings.Fields(line); len(f) < 3 || tc.want[f[0]] != f[2] {
				t.Errorf("%s: line %q does not print a declared metric with its unit", tc.name, line)
			}
		}
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name+": "+w.Why)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name+": "+w.why)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %q, benchmark runs %q", names, ours)
	}
}

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 20)
	for i := range xs {
		xs[i] = float64(20 - i) // 20..1, unsorted
	}
	if got := percentile(xs, 50); got != 10 {
		t.Errorf("p50 of 1..20 = %g, want 10", got)
	}
	if got := percentile(xs, 99); got != 20 {
		t.Errorf("p99 of 1..20 = %g, want 20", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %g, want 0", got)
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{20, 50, true}, {20, 75, false}, {19, 50, false},
		{120, 90, true}, {120, 95, false},
		{1000, 99, true}, {999, 99, false},
		{0, 50, false},
	} {
		if got := supports(tc.n, tc.p); got != tc.want {
			t.Errorf("supports(%d, p%g) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestSchedulesFollowTheSeed(t *testing.T) {
	sizes := [4]int{16, 8, 4, 1}
	a, b, c := hotSchedule(1, 0, 4096, sizes), hotSchedule(1, 0, 4096, sizes), hotSchedule(2, 0, 4096, sizes)
	if !reflect.DeepEqual(a, b) {
		t.Error("hot schedule differs for one seed")
	}
	if reflect.DeepEqual(a, c) || reflect.DeepEqual(a, hotSchedule(1, 1, 4096, sizes)) {
		t.Error("hot schedule ignores the seed or the client")
	}
	var perClass [4]int
	for _, i := range a {
		switch {
		case i < 16:
			perClass[0]++
		case i < 24:
			perClass[1]++
		case i < 28:
			perClass[2]++
		default:
			perClass[3]++
		}
	}
	for cl, w := range hotMix {
		if share := float64(perClass[cl]) / float64(len(a)) * 100; share < float64(w)-3 || share > float64(w)+3 {
			t.Errorf("class %d share %.1f%%, mix says %d%%", cl, share, w)
		}
	}

	flat := func(arr []arrival) []string {
		var out []string
		for _, a := range arr {
			name := strconv.Itoa(a.hot)
			if a.whatif != nil {
				name = a.whatif.name
			}
			out = append(out, fmt.Sprint(a.due, " ", name))
		}
		return out
	}
	w1 := whatifSchedule(1, serveDefaults, 20*time.Second, sizes)
	if !reflect.DeepEqual(flat(w1), flat(whatifSchedule(1, serveDefaults, 20*time.Second, sizes))) {
		t.Error("what-if schedule differs for one seed")
	}
	if reflect.DeepEqual(flat(w1), flat(whatifSchedule(2, serveDefaults, 20*time.Second, sizes))) {
		t.Error("what-if schedule ignores the seed")
	}
	seen := make(map[string]bool)
	for _, a := range w1 {
		if a.whatif == nil {
			continue
		}
		if seen[a.whatif.name] || a.whatif.months == 24 {
			t.Errorf("what-if %s repeats or hits the warm lifetime", a.whatif.name)
		}
		seen[a.whatif.name] = true
	}
	if want := int(0.06*float64(len(w1)) + 0.5); len(seen) != want {
		t.Errorf("%d what-ifs among %d arrivals, want %d", len(seen), len(w1), want)
	}
}

func TestSelfTimesSubtractOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 60},
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120},
		{Name: "a", ID: 5, Parent: 3, Start: 35, End: 45},
	}
	got := selfTimes(spans)
	// root: 100 minus the union [10,60] ∪ [90,100]; b: 30 minus its own
	// child; a: 30 + 10.
	want := map[string]int64{"root": 40, "a": 40, "b": 20, "c": 30}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	tr := newTracer()
	root := tr.begin(7, 0, "root")
	tr.begin(7, root.id(), "child").end()
	root.end()
	rec := tr.recorded()
	if len(rec) != 2 || rec[0].Parent != rec[1].ID || rec[0].Trace != 7 || rec[1].Start > rec[0].Start || rec[1].End < rec[0].End {
		t.Errorf("recorded spans %+v do not nest", rec)
	}
	var none *tracer
	none.begin(1, 0, "x").end()
	if none.recorded() != nil {
		t.Error("a nil tracer recorded a span")
	}
}

// tinyServe is a warm set small enough for tests.
var tinyServe = serveParams{
	systems: []string{"si", "m3d"}, kernels: []string{"huff"}, grids: []string{"US"},
	batches: 2, batchItems: 4, rate: 50, whatifShare: 0.1,
}

func TestGoldenMismatchIsAFailure(t *testing.T) {
	f, err := newServeFixture(1, tinyServe)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	r := newResult()
	f.checkGolden(r, &golden{Bodies: map[string]string{"evaluate si huff US": "0000"}})
	if r.failed != 1 || r.correct() || r.checks["serve body evaluate si huff US"] != "mismatch" {
		t.Errorf("failed %d, correct %v, checks %v", r.failed, r.correct(), r.checks)
	}
	if r.checks["serve body tcdp huff"] != "unchecked" {
		t.Errorf("a key with no golden entry is %q, want unchecked", r.checks["serve body tcdp huff"])
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func(runConfig) (*result, error)
		// seconds covers at least one traced stretch of a serving run.
		seconds time.Duration
		// layer is a per-layer metric a traced run must measure.
		layer string
		heavy bool
	}{
		{"paper-cold", func(c runConfig) (*result, error) {
			return runPaperCold(c, paperParams{workload: "huff", grid: carbon.GridCoal, months: 12})
		}, 300 * time.Millisecond, "edram.self_ms", false},
		{"sweep-mc", func(c runConfig) (*result, error) { return runSweepMC(c, sweepParams{samples: 2}) },
			300 * time.Millisecond, "core.memo.carbon.misses", false},
		{"serve-hot", func(c runConfig) (*result, error) { return runServeHot(c, tinyServe) },
			1200 * time.Millisecond, "server.hit_ms_p50", false},
		{"serve-whatif", func(c runConfig) (*result, error) { return runServeWhatif(c, tinyServe) },
			2 * time.Second, "whatif.hit_ms_p50", true},
	} {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", tc.name, trace), func(t *testing.T) {
				if tc.heavy && testing.Short() {
					t.Skip("heavy")
				}
				r, err := tc.run(runConfig{seed: 3, seconds: tc.seconds, trace: trace, golden: g})
				if err != nil {
					t.Fatal(err)
				}
				if !r.correct() || r.attempted < 1 {
					t.Fatalf("correct %v attempted %d failed %d checks %v", r.correct(), r.attempted, r.failed, r.checks)
				}
				for _, m := range endToEnd {
					if v, ok := r.values[m.name]; !ok || v.v <= 0 {
						t.Errorf("%s = %+v, want a positive measurement", m.name, v)
					}
				}
				if v := r.values[tc.layer]; trace && v.v <= 0 {
					t.Errorf("traced %s = %+v, want a positive measurement", tc.layer, v)
				}
			})
		}
	}
}

// TestReplayMatchesEvaluate pins that the traced stage-by-stage replay
// assembles exactly what core.EvaluateContext returns.
func TestReplayMatchesEvaluate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs matmult-int")
	}
	for _, name := range []string{"matmult-int", "crc32", "edn", "huff", "sieve"} {
		w, err := embench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range core.Systems() {
			want, err := core.EvaluateContext(context.Background(), sys, w, carbon.GridUS)
			if err != nil {
				t.Fatal(err)
			}
			var st replayStats
			got, err := replay(newTracer(), 1, 0, sys, w, carbon.GridUS, &st)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %s: replay differs from core.EvaluateContext", name, sys.Name)
			}
		}
	}
}

// TestGolden checks the committed golden.json against the current
// outputs, or rewrites it with -update.
func TestGolden(t *testing.T) {
	if testing.Short() && !*update {
		t.Skip("runs every workload's golden inputs")
	}
	var g golden
	in, err := paperSetup(paperDefaults)
	if err != nil {
		t.Fatal(err)
	}
	si, m3d, text, _, err := paperUntraced(context.Background(), in, paperDefaults)
	if err != nil {
		t.Fatal(err)
	}
	g.PaperText, g.PaperMaxRelErr = digest([]byte(text)), maxRelErr(si, m3d)
	run, err := embench.Run(in.w, maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	g.Matmult = simCounts{run.Cycles, run.Instructions, run.Stats.ProgramReads, run.Stats.DataReads, run.Stats.DataWrites}

	f, err := newServeFixture(1, serveDefaults)
	if err != nil {
		t.Fatal(err)
	}
	g.Bodies = make(map[string]string)
	for _, c := range []int{classEvaluate, classTCDP, classSuite} {
		for _, q := range f.classes[c] {
			g.Bodies[q.name] = digest(q.want)
		}
	}
	f.close()

	g.Sweep = make(map[string]string)
	var buf bytes.Buffer
	for seed := int64(1); seed <= 3; seed++ {
		spec, err := sweepSetup(seed, sweepDefaults)
		if err != nil {
			t.Fatal(err)
		}
		out, err := sweepOnce(context.Background(), nil, 0, spec, &buf)
		if err != nil {
			t.Fatal(err)
		}
		g.Sweep[strconv.FormatInt(seed, 10)] = digest(out.ndjson)
	}

	b, err := json.MarshalIndent(&g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, '\n')
	if *update {
		if err := os.WriteFile("golden.json", b, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !bytes.Equal(b, goldenJSON) {
		t.Errorf("outputs differ from golden.json; if the change is intended, rerun with -update\ngot:\n%s", b)
	}
}
