package server

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ppatc/internal/embench"
	"ppatc/internal/obs/flight"
)

// TestPoolClassPriority pins the scheduler's strict priority: when the
// single worker frees up with both classes queued, the interactive job
// runs before bulk jobs that were queued earlier.
func TestPoolClassPriority(t *testing.T) {
	p := NewPool(1, 8)
	defer p.Close()

	block := make(chan struct{})
	started := make(chan struct{})
	go p.Do(context.Background(), ClassBulk, func() { close(started); <-block })
	<-started // the single worker is now busy

	var mu sync.Mutex
	var order []Class
	record := func(c Class) { mu.Lock(); order = append(order, c); mu.Unlock() }
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Do(context.Background(), ClassBulk, func() { record(ClassBulk) }); err != nil {
				t.Errorf("bulk job: %v", err)
			}
		}()
	}
	for i := 0; p.QueueDepthClass(ClassBulk) < 3 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := p.Do(context.Background(), ClassInteractive, func() { record(ClassInteractive) }); err != nil {
			t.Errorf("interactive job: %v", err)
		}
	}()
	for i := 0; p.QueueDepthClass(ClassInteractive) < 1 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}

	close(block)
	wg.Wait()
	if len(order) != 4 {
		t.Fatalf("ran %d jobs, want 4", len(order))
	}
	if order[0] != ClassInteractive {
		t.Fatalf("first job after the blocker was %v, want interactive ahead of %d queued bulk jobs", order[0], 3)
	}
}

// TestPoolReservedInteractiveWorker pins the reservation: with two
// workers, bulk work can occupy at most one of them, so an interactive
// job admitted while bulk jobs block never waits behind them.
func TestPoolReservedInteractiveWorker(t *testing.T) {
	p := NewPool(2, 8)
	defer p.Close()

	block := make(chan struct{})
	started := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go p.Do(context.Background(), ClassBulk, func() {
			started <- struct{}{}
			<-block
		})
	}
	<-started // one bulk job holds the unreserved worker; the second queues

	done := make(chan error, 1)
	go func() {
		_, err := p.Do(context.Background(), ClassInteractive, func() {})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("interactive job: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("interactive job starved behind blocked bulk work; the reserved worker is not serving")
	}
	close(block)
}

// TestSplitFanOutZeroDenominator pins the admission-control bugfix: a
// fan-out whose items recorded no stage time (an all-hit batch inside
// clock resolution) must attribute the full wall time to "other", not
// divide by zero and poison every stage.
func TestSplitFanOutZeroDenominator(t *testing.T) {
	items := make([]flight.Attribution, 3) // all zero stage times
	bd := splitFanOut(items, 1234)
	if bd.OtherNS != 1234 {
		t.Fatalf("zero-denominator split attributed %d ns to other, want the full 1234 (breakdown %+v)", bd.OtherNS, bd)
	}
	if got := bd.QueueWaitNS + bd.CacheLookupNS + bd.ComputeNS + bd.EncodeNS + bd.StoreWriteNS; got != 0 {
		t.Fatalf("zero-denominator split put %d ns into named stages: %+v", got, bd)
	}
	if bd := splitFanOut(items, 0); bd != (flight.Breakdown{}) {
		t.Fatalf("zero-wall split should attribute nothing, got %+v", bd)
	}
	// The split must re-add to the wall clock exactly, truncation included.
	items[0].ComputeNS = 7777
	items[1].QueueWaitNS = 1111
	items[2].StoreWriteNS = 3
	bd = splitFanOut(items, 5000)
	if sum := bd.QueueWaitNS + bd.CacheLookupNS + bd.ComputeNS + bd.EncodeNS + bd.StoreWriteNS + bd.OtherNS; sum != 5000 {
		t.Fatalf("split sums to %d, want the 5000 ns wall clock: %+v", sum, bd)
	}
}

// TestAdmissionClassInFlightDump drives the three admission shapes over
// a live server and asserts the flight dump labels them: cold 8-miss
// batches are bulk, single evaluations and small batches interactive,
// and every event — the all-hit replay included — keeps the partition
// invariant.
func TestAdmissionClassInFlightDump(t *testing.T) {
	srv, ts := newTestServer(t)

	// A cold batch above the interactive-miss threshold: bulk.
	items := make([]string, 0, 8)
	for _, wl := range []string{"crc32", "edn", "sieve", "strsearch"} {
		items = append(items, fmt.Sprintf(`{"system":"si","workload":%q}`, wl))
		items = append(items, fmt.Sprintf(`{"system":"m3d","workload":%q}`, wl))
	}
	coldBatch := `{"items":[` + strings.Join(items, ",") + `]}`
	if resp, b := post(t, ts, "/v1/batch", coldBatch); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold batch: %d %s", resp.StatusCode, b)
	}
	// The same batch again: all hits, no fan-out, no admission class.
	if resp, b := post(t, ts, "/v1/batch", coldBatch); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm batch: %d %s", resp.StatusCode, b)
	}
	// A single evaluation: interactive by endpoint.
	if resp, b := post(t, ts, "/v1/evaluate", `{"system":"si","workload":"huff"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: %d %s", resp.StatusCode, b)
	}
	// A two-miss batch: within the threshold, interactive.
	smallBatch := `{"items":[{"system":"si","workload":"matmult-int"},{"system":"m3d","workload":"matmult-int"}]}`
	if resp, b := post(t, ts, "/v1/batch", smallBatch); resp.StatusCode != http.StatusOK {
		t.Fatalf("small batch: %d %s", resp.StatusCode, b)
	}

	resp, body := get(t, ts, "/debug/flight")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flight dump status %d", resp.StatusCode)
	}
	evs := decodeFlightDump(t, body)
	if len(evs) != 4 {
		t.Fatalf("flight dump has %d events, want 4:\n%s", len(evs), body)
	}
	for _, e := range evs {
		if err := e.CheckTotal(0.01); err != nil {
			t.Fatalf("stage sum cross-check failed: %v (event %+v)", err, e)
		}
	}
	if got := evs[0].AdmissionClass; got != "bulk" {
		t.Errorf("cold 8-miss batch admission_class %q, want bulk", got)
	}
	if got := evs[1].AdmissionClass; got != "" {
		t.Errorf("all-hit batch admission_class %q, want empty (never reached the pool)", got)
	}
	if evs[1].Disposition != "HIT" {
		t.Errorf("all-hit batch disposition %q, want HIT", evs[1].Disposition)
	}
	if got := evs[2].AdmissionClass; got != "interactive" {
		t.Errorf("evaluate admission_class %q, want interactive", got)
	}
	if got := evs[3].AdmissionClass; got != "interactive" {
		t.Errorf("2-miss batch admission_class %q, want interactive", got)
	}

	// The per-class queue-wait surface saw both classes.
	if n := srv.Metrics().QueueWaitCount("bulk"); n != 8 {
		t.Errorf("bulk queue-wait observations %d, want 8 (one per cold batch item)", n)
	}
	if n := srv.Metrics().QueueWaitCount("interactive"); n < 3 {
		t.Errorf("interactive queue-wait observations %d, want >= 3", n)
	}
}

// TestInteractiveP99UnderBulkFlood is the admission-control contract
// under worst-case head-of-line pressure: two flooders keep the worker
// pool saturated with cold 256-tuple batches (a 4-entry, 1-shard cache
// evicts everything between rounds) while one prober issues single
// evaluations. The probe p99 must stay within 5x its own p95, with a
// 50 ms floor so timer noise on a small sample cannot fail a healthy
// run. Before per-class admission the probe tail sat behind whole batch
// fan-outs and blew this budget by an order of magnitude (141 ms p99
// against a 0.43 ms p95).
//
// Probes use the Solar and Taiwan grids, which the flood never touches,
// so a probe is never a coalesced ride on a batch item. It is still no
// full pipeline run: the daemon evaluates every cold request through
// its process-lifetime stage memo, so once each probe grid's carbon
// stage has run, a probe miss is a memo replay. One run on a 2-vCPU
// Xeon (go1.24.0) measured 11,924 probes in 2 s, p50 0.103 ms, p95
// 0.521 ms, p99 1.07 ms; the 50 ms floor, not 5x p95, is therefore the
// bound that binds.
func TestInteractiveP99UnderBulkFlood(t *testing.T) {
	if testing.Short() {
		t.Skip("floods the pool for seconds")
	}
	const (
		flooders  = 2
		batchSize = 256
		window    = 2 * time.Second
	)
	srv := New(Config{
		Workers:      runtime.GOMAXPROCS(0),
		QueueDepth:   1024,
		CacheEntries: 4,
		CacheShards:  1,
		Logger:       slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError})),
	})
	defer srv.Close()
	h := srv.Handler()
	issue := func(path, body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec.Code
	}

	var tuples, probes []string
	for _, sys := range []string{"si", "m3d"} {
		for _, wl := range embench.Workloads() {
			for _, g := range []string{"US", "Coal"} {
				tuples = append(tuples, fmt.Sprintf(`{"system":%q,"workload":%q,"grid":%q}`, sys, wl.Name, g))
			}
			for _, g := range []string{"Solar", "Taiwan"} {
				probes = append(probes, fmt.Sprintf(`{"system":%q,"workload":%q,"grid":%q}`, sys, wl.Name, g))
			}
		}
	}
	items := make([]string, batchSize)
	for i := range items {
		items[i] = tuples[i%len(tuples)]
	}
	flood := `{"items":[` + strings.Join(items, ",") + `]}`

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < flooders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				issue("/v1/batch", flood)
			}
		}()
	}
	// Let the flood establish pool pressure before the first probe.
	time.Sleep(250 * time.Millisecond)

	var lats []time.Duration
	errs := 0
	deadline := time.Now().Add(window)
	for i := 0; time.Now().Before(deadline); i++ {
		start := time.Now()
		if issue("/v1/evaluate", probes[i%len(probes)]) != http.StatusOK {
			errs++
			continue
		}
		lats = append(lats, time.Since(start))
	}
	close(stop)
	wg.Wait()

	if len(lats) < 5 {
		t.Fatalf("only %d probes (%d errors) in %v; the scenario is not exercising the pool", len(lats), errs, window)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	// Nearest-rank percentile in milliseconds.
	pct := func(p int) float64 {
		idx := (len(lats)*p + 99) / 100
		if idx > 0 {
			idx--
		}
		return lats[idx].Seconds() * 1e3
	}
	p50, p95, p99 := pct(50), pct(95), pct(99)
	t.Logf("%d probes (%d errors): p50 %.3fms p95 %.3fms p99 %.3fms max %.3fms",
		len(lats), errs, p50, p95, p99, lats[len(lats)-1].Seconds()*1e3)
	budget := 5 * p95
	if budget < 50 {
		budget = 50
	}
	if p99 > budget {
		t.Fatalf("probe p99 %.3fms exceeds budget %.3fms (p95 %.3fms, %d probes): interactive requests are waiting behind cold batches",
			p99, budget, p95, len(lats))
	}
}
