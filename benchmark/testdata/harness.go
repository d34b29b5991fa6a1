package main

import (
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// runConfig is what every workload runner receives: the benchmark's
// arguments plus the golden outputs to check against.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	golden  *golden
}

// A run sets its workload up at least setupReps times and for at least
// setupSpan in all; setup_s is the median, so one burst of contention on
// a shared machine does not decide it.
const (
	setupReps = 3
	setupSpan = 2 * time.Second
)

// timeSetup runs setup repeatedly, records the median duration as
// setup_s and returns the last set-up state. discard releases each
// earlier state before the next set-up begins. Each set-up starts from a
// collected heap, so whether a collection falls inside a short set-up
// does not depend on what ran before it.
func timeSetup[T any](r *result, setup func() (T, error), discard func(T)) (T, error) {
	var last T
	var secs []float64
	for begin := time.Now(); len(secs) < setupReps || time.Since(begin) < setupSpan; {
		if len(secs) > 0 && discard != nil {
			discard(last)
		}
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return v, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
	}
	r.set("setup_s", percentile(secs, 50), len(secs))
	return last, nil
}

// runClosed measures a closed-loop workload: one caller runs op back to
// back until d has passed. Each op reports the latency it measured for
// itself, leaving its output checks outside it; a failed op counts as
// failed and keeps its latency. In a traced run every second op is
// traced, starting with the second, and the two halves give the tracing
// overhead. It records the end-to-end metrics and returns the number of
// traced ops, at least one in a traced run.
func runClosed(r *result, d time.Duration, trace bool, tailPct float64, op func(i int, traced bool) (time.Duration, error)) int {
	minOps := 1
	if trace {
		minOps = 2
	}
	var latMS, untracedMS, tracedMS []float64
	w := startWindow()
	deadline := time.Now().Add(d)
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		traced := trace && i%2 == 1
		l, err := op(i, traced)
		if err != nil {
			r.failed++
		}
		ms := float64(l.Nanoseconds()) / 1e6
		latMS = append(latMS, ms)
		if traced {
			tracedMS = append(tracedMS, ms)
		} else {
			untracedMS = append(untracedMS, ms)
		}
	}
	m := w.finish()
	r.attempted += len(latMS)
	if trace {
		r.set("harness.trace_overhead_pct", traceOverheadPct(mean(untracedMS), mean(tracedMS)), len(latMS))
	}
	recordOps(r, latMS, len(latMS), m, tailPct)
	return len(tracedMS)
}

// window is the measured part of a run. It starts after set-up, with
// the memory set-up left behind returned to the OS, and tracks elapsed
// time, heap allocations and resident memory.
type window struct {
	start   time.Time
	mallocs uint64
	stop    chan struct{}
	rss     chan []float64
}

// measured is what a window saw. rssMB is the median of the resident set
// size sampled every 10 ms: the footprint the work holds, which unlike
// the peak does not hinge on where a collection fell.
type measured struct {
	elapsed time.Duration
	allocs  uint64
	rssMB   float64
}

func startWindow() *window {
	debug.FreeOSMemory()
	w := &window{stop: make(chan struct{}), rss: make(chan []float64, 1)}
	go func() {
		samples := []float64{residentMB()}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				samples = append(samples, residentMB())
			case <-w.stop:
				w.rss <- samples
				return
			}
		}
	}()
	w.mallocs = mallocs()
	w.start = time.Now()
	return w
}

// finish ends the window.
func (w *window) finish() measured {
	m := measured{elapsed: time.Since(w.start), allocs: mallocs() - w.mallocs}
	close(w.stop)
	m.rssMB = percentile(<-w.rss, 50)
	return m
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// residentMB is the process's resident set size in MB, or the memory the
// Go runtime holds from the OS where /proc is missing.
func residentMB() float64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				return pages * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys-ms.HeapReleased) / (1 << 20)
}

// reservoir keeps a uniform random sample of latencies in a fixed
// capacity (Algorithm R), so the benchmark's own memory does not grow
// with the throughput it measures.
type reservoir struct {
	rng  *rand.Rand
	seen int
	ms   []float64
}

func newReservoir(seed int64, capacity int) *reservoir {
	return &reservoir{rng: rand.New(rand.NewSource(seed)), ms: make([]float64, 0, capacity)}
}

func (r *reservoir) add(ms float64) {
	r.seen++
	if len(r.ms) < cap(r.ms) {
		r.ms = append(r.ms, ms)
		return
	}
	if j := r.rng.Intn(r.seen); j < len(r.ms) {
		r.ms[j] = ms
	}
}

// recordOps sets the end-to-end op metrics: latency percentiles from
// latMS (all ops' latencies in ms, or a uniform sample of them), the
// throughput of ops ops, and the window's allocations and memory.
// tailPct is the workload's tail percentile, chosen so its usual sample
// count leaves minBeyond samples beyond it; a run that falls short says
// so.
func recordOps(r *result, latMS []float64, ops int, m measured, tailPct float64) {
	n := len(latMS)
	r.set("op_ms_p50", percentile(latMS, 50), n)
	r.values["op_ms_tail"] = value{v: percentile(latMS, tailPct), n: n, note: "p" + strconv.FormatFloat(tailPct, 'g', -1, 64)}
	if !supports(n, tailPct) {
		r.warnf("%d samples leave fewer than %d beyond p%g", n, minBeyond, tailPct)
	}
	r.set("ops_per_s", float64(ops)/m.elapsed.Seconds(), ops)
	if ops > 0 {
		r.set("allocs_per_op", float64(m.allocs)/float64(ops), ops)
	}
	r.set("rss_mb_p50", m.rssMB, 1)
}

// traceOverheadPct compares the mean latency of traced and untraced ops
// of one run.
func traceOverheadPct(untracedMean, tracedMean float64) float64 {
	if untracedMean == 0 || tracedMean == 0 {
		return 0
	}
	return (tracedMean/untracedMean - 1) * 100
}
