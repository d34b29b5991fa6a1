// Command benchmark is ppatc's repository benchmark: four workloads that
// stand for the reproduction's users, each measured end to end and, in a
// separate traced run, layer by layer. Build and run it from the
// repository root:
//
//	bash benchmark/run.sh --workload paper-cold --seed 1 --seconds 20 --trace 0
//
// It prints every metric as "name value unit n=<samples>", the golden
// checks, and last one JSON line with the run's verdict and metrics. It
// exits 1 when any output is wrong. README.md explains the workloads,
// metrics and bounds.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// workload is one benchmark workload; why is the reason it exists, as
// BENCHMARK.json states it.
type workload struct {
	name, why string
	run       func(runConfig) (*result, error)
}

var workloads = []workload{
	{"paper-cold", "the ppatc report user: cold Table II plus every figure, ~75% ISA simulation, no cache",
		func(c runConfig) (*result, error) { return runPaperCold(c, paperDefaults) }},
	{"sweep-mc", "the design-space user: a 38,400-point Monte Carlo sweep that shares 64 pipeline tuples through the memo",
		func(c runConfig) (*result, error) { return runSweepMC(c, sweepDefaults) }},
	{"serve-hot", "cache-hit serving from a closed loop of clients; no model layer does timed work",
		func(c runConfig) (*result, error) { return runServeHot(c, serveDefaults) }},
	{"serve-whatif", "open-loop serving with 6% cold what-if tCDP misses among hits: the cold path and its queueing",
		func(c runConfig) (*result, error) { return runServeWhatif(c, serveDefaults) }},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "paper-cold, sweep-mc, serve-hot, serve-whatif, or all (each in its own process)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 20, "how long one run measures")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 reports per-layer metrics from a traced run")
	spansOut := fs.String("spans", "", "with -trace 1, also write the recorded spans to this file as NDJSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: need -seconds >= 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *trace, stdout, stderr)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	g, err := loadGolden()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	res, err := w.run(runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, golden: g})
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	vocab := endToEnd
	if *trace == 1 {
		vocab = perLayer
		if *spansOut != "" {
			if err := writeSpans(*spansOut, res.spans); err != nil {
				fmt.Fprintf(stderr, "benchmark: writing spans: %v\n", err)
				return 1
			}
		}
	}
	if err := writeReport(stdout, w.name, *seed, res, vocab); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, so peak RSS and
// GC state stay per workload, starting at a seed-dependent workload. It
// prints each child's report lines under the workload's name and one
// merged JSON line whose metrics are named "<workload>.<metric>".
func runAll(seed int64, seconds, trace int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	merged := jsonReport{Correct: true, Metrics: make(map[string]jsonMetric)}
	start := int(((seed % int64(len(workloads))) + int64(len(workloads))) % int64(len(workloads)))
	for k := range workloads {
		w := workloads[(start+k)%len(workloads)]
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
		cmd.Stderr = stderr
		out, err := cmd.Output()
		var exitErr *exec.ExitError
		if err != nil && !errors.As(err, &exitErr) {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		rep, err := mergeChild(stdout, w.name, out)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		merged.Correct = merged.Correct && rep.Correct
		merged.Attempted += rep.Attempted
		merged.Failed += rep.Failed
		for name, m := range rep.Metrics {
			merged.Metrics[w.name+"."+name] = m
		}
	}
	b, err := json.Marshal(merged)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !merged.Correct {
		return 1
	}
	return 0
}

// mergeChild prints a child's report lines prefixed by its workload and
// decodes its final JSON line.
func mergeChild(stdout io.Writer, name string, out []byte) (jsonReport, error) {
	var rep jsonReport
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) == 0 {
		return rep, errors.New("no report")
	}
	for _, line := range lines[:len(lines)-1] {
		fmt.Fprintf(stdout, "%-13s %s\n", name, line)
	}
	if err := json.NewDecoder(strings.NewReader(lines[len(lines)-1])).Decode(&rep); err != nil {
		return rep, fmt.Errorf("bad report line: %w", err)
	}
	return rep, nil
}
