package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// metricDef names one reported metric and its unit. The two vocabularies
// below are the ones BENCHMARK.json declares, in the same order.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of each workload sees, reported by untraced
// runs. An op is one iteration of a closed-loop workload, one request of
// serve-hot and one what-if request of serve-whatif.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"ops_per_s", "1/s"},
	{"allocs_per_op", "allocs"},
	{"rss_mb_p50", "MB"},
}

// perLayer is reported by traced runs. Times and counts are per op
// unless the name says otherwise; a layer the workload does not reach
// directly reports 0.
var perLayer = []metricDef{
	{"embench.self_ms", "ms"},
	{"embench.calls", "count"},
	{"embench.sim_cycles", "cycles"},
	{"embench.sim_minstr_per_s", "Minstr/s"},
	{"edram.self_ms", "ms"},
	{"edram.calls", "count"},
	{"edram.allocs_per_call", "allocs"},
	{"synth.self_ms", "ms"},
	{"synth.calls", "count"},
	{"floorplan.self_ms", "ms"},
	{"floorplan.calls", "count"},
	{"carbon.self_ms", "ms"},
	{"carbon.calls", "count"},
	{"figures.self_ms", "ms"},
	{"core.evaluate_ms", "ms"},
	{"core.residual_ms", "ms"},
	{"core.memo.embench.hits", "count"},
	{"core.memo.embench.misses", "count"},
	{"core.memo.edram.hits", "count"},
	{"core.memo.edram.misses", "count"},
	{"core.memo.synth.hits", "count"},
	{"core.memo.synth.misses", "count"},
	{"core.memo.floorplan.hits", "count"},
	{"core.memo.floorplan.misses", "count"},
	{"core.memo.carbon.hits", "count"},
	{"core.memo.carbon.misses", "count"},
	{"dse.expand_ms", "ms"},
	{"dse.run_ms", "ms"},
	{"dse.encode_ms", "ms"},
	{"dse.analyze_ms", "ms"},
	{"dse.points", "count"},
	{"server.hit_ms_p50", "ms"},
	{"server.hit_ratio", "ratio"},
	{"server.miss_count", "count"},
	{"server.compute_ms_mean", "ms"},
	{"server.queue_wait_ms_mean", "ms"},
	{"server.encode_ms_mean", "ms"},
	{"whatif.hit_ms_p50", "ms"},
	{"harness.late_ms_p99", "ms"},
	{"harness.trace_overhead_pct", "%"},
	{"paper.max_rel_err", "ratio"},
}

// value is one measured metric with the number of samples behind it and
// an optional qualifier, such as which percentile a tail is.
type value struct {
	v    float64
	n    int
	note string
}

// result is what a workload runner measured and checked.
type result struct {
	attempted, failed int
	values            map[string]value
	// checks records each golden comparison by name: "ok", "mismatch" or
	// "unchecked" (no golden entry for these inputs).
	checks   map[string]string
	warnings []string
	spans    []span
}

func newResult() *result {
	return &result{values: make(map[string]value), checks: make(map[string]string)}
}

func (r *result) set(name string, v float64, n int) { r.values[name] = value{v: v, n: n} }

// check records a golden comparison and reports whether it passed. A
// mismatch counts as a failed attempt.
func (r *result) check(name, got, want string) bool {
	if want == "" {
		r.checks[name] = "unchecked"
		return true
	}
	if got != want {
		r.checks[name] = "mismatch"
		return false
	}
	if r.checks[name] != "mismatch" {
		r.checks[name] = "ok"
	}
	return true
}

func (r *result) warnf(format string, args ...any) {
	r.warnings = append(r.warnings, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool {
	if r.failed > 0 || r.attempted < 1 {
		return false
	}
	for _, status := range r.checks {
		if status == "mismatch" {
			return false
		}
	}
	return true
}

// jsonMetric and jsonReport are the final line of standard output.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonReport struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// writeReport prints every metric of the vocabulary as "name value unit
// n=<samples>", the golden checks and warnings, and last the JSON
// summary line.
func writeReport(w io.Writer, workload string, seed int64, r *result, vocab []metricDef) error {
	rep := jsonReport{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]jsonMetric)}
	fmt.Fprintf(w, "workload %s seed %d attempted %d failed %d\n", workload, seed, r.attempted, r.failed)
	for _, m := range vocab {
		v, ok := r.values[m.name]
		note := v.note
		if !ok {
			note = "not reached by this workload"
		}
		line := fmt.Sprintf("%-30s %s %s n=%d", m.name, strconv.FormatFloat(v.v, 'g', -1, 64), m.unit, v.n)
		if note != "" {
			line += " (" + note + ")"
		}
		fmt.Fprintln(w, line)
		rep.Metrics[m.name] = jsonMetric{Value: v.v, Unit: m.unit}
	}
	names := make([]string, 0, len(r.checks))
	for name := range r.checks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "golden %s %s\n", name, r.checks[name])
	}
	for _, msg := range r.warnings {
		fmt.Fprintf(w, "warning: %s\n", msg)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
