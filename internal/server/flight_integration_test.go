package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ppatc/internal/obs/flight"
)

// decodeFlightDump parses a /debug/flight NDJSON body.
func decodeFlightDump(t *testing.T, body []byte) []flight.Event {
	t.Helper()
	var evs []flight.Event
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e flight.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad flight NDJSON line %q: %v", line, err)
		}
		evs = append(evs, e)
	}
	return evs
}

// TestFlightDumpAttributionCrossChecks drives every computing endpoint
// once cold and once hot, then asserts the flight dump contains one
// event per request whose stage sums re-add to the end-to-end latency
// within 1% — the partition invariant the attribution discipline
// promises.
func TestFlightDumpAttributionCrossChecks(t *testing.T) {
	_, ts := newTestServer(t)

	reqs := []struct{ path, body string }{
		{"/v1/evaluate", `{"system":"si","workload":"matmult-int"}`},
		{"/v1/evaluate", `{"system":"si","workload":"matmult-int"}`}, // HIT
		{"/v1/suite", `{"grid":"US"}`},
		{"/v1/tcdp", `{"workload":"matmult-int"}`},
		{"/v1/batch", `{"items":[{"system":"si","workload":"crc32"},{"system":"m3d","workload":"crc32"}]}`},
	}
	for _, rq := range reqs {
		resp, b := post(t, ts, rq.path, rq.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d %s", rq.path, resp.StatusCode, b)
		}
	}

	resp, body := get(t, ts, "/debug/flight")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flight dump status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("flight dump content type %q", ct)
	}
	evs := decodeFlightDump(t, body)
	if len(evs) != len(reqs) {
		t.Fatalf("flight dump has %d events, want %d", len(evs), len(reqs))
	}
	var last uint64
	sawHit, sawMiss, sawBatch := false, false, false
	for _, e := range evs {
		if e.Seq <= last {
			t.Fatalf("sequence not strictly ascending: %d after %d", e.Seq, last)
		}
		last = e.Seq
		if err := e.CheckTotal(0.01); err != nil {
			t.Fatalf("stage sum cross-check failed: %v (event %+v)", err, e)
		}
		if e.RequestID == "" {
			t.Fatalf("event %d has no request ID", e.Seq)
		}
		switch {
		case e.Endpoint == "evaluate" && e.Disposition == "HIT":
			sawHit = true
			if e.ComputeNS != 0 {
				t.Fatalf("cache hit attributed compute time: %+v", e)
			}
		case e.Endpoint == "evaluate" && e.Disposition == "MISS":
			sawMiss = true
			if e.ComputeNS <= 0 {
				t.Fatalf("cache miss attributed no compute time: %+v", e)
			}
		case e.Endpoint == "batch":
			sawBatch = true
			if e.BatchSize != 2 {
				t.Fatalf("batch event has batch_size %d, want 2", e.BatchSize)
			}
		}
	}
	if !sawHit || !sawMiss || !sawBatch {
		t.Fatalf("missing expected events (hit=%v miss=%v batch=%v):\n%s", sawHit, sawMiss, sawBatch, body)
	}
}

// TestFlightDumpRingSelection exercises ?ring= and ?n=.
func TestFlightDumpRingSelection(t *testing.T) {
	cfg := quietConfig()
	cfg.SlowThreshold = time.Hour // nothing in this test is slow
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	for i := 0; i < 3; i++ {
		post(t, ts, "/v1/evaluate", `{"system":"si","workload":"crc32"}`)
	}
	if resp, body := get(t, ts, "/debug/flight?ring=recent&n=2"); resp.StatusCode != http.StatusOK {
		t.Fatalf("recent dump status %d", resp.StatusCode)
	} else if evs := decodeFlightDump(t, body); len(evs) != 2 {
		t.Fatalf("n=2 returned %d events", len(evs))
	}
	if _, body := get(t, ts, "/debug/flight?ring=slow"); len(decodeFlightDump(t, body)) != 0 {
		t.Fatalf("slow ring unexpectedly populated: %s", body)
	}
	if resp, _ := get(t, ts, "/debug/flight?ring=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus ring status %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/debug/flight?n=-1"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative n status %d, want 400", resp.StatusCode)
	}
}

// TestSlowBatchAttributesQueueWait pins the acceptance scenario: on a
// one-worker server, a cold batch serializes behind the pool, so the
// batch's flight event must attribute the majority of its latency to
// queue_wait — the head-of-line-blocking signal ROADMAP item 2 is
// waiting for. The slow threshold is lowered so the event also lands in
// the slow ring.
func TestSlowBatchAttributesQueueWait(t *testing.T) {
	cfg := quietConfig()
	cfg.Workers = 1
	cfg.SlowThreshold = time.Millisecond
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	// A cold batch of distinct tuples: every item is a miss, and with one
	// worker each one queues behind the previous item's computation.
	items := make([]string, 0, 8)
	for _, wl := range []string{"crc32", "edn", "sieve", "strsearch"} {
		items = append(items, fmt.Sprintf(`{"system":"si","workload":%q}`, wl))
		items = append(items, fmt.Sprintf(`{"system":"m3d","workload":%q}`, wl))
	}
	body := `{"items":[` + strings.Join(items, ",") + `]}`
	resp, b := post(t, ts, "/v1/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("cold batch X-Cache %q, want MISS", got)
	}

	resp, dump := get(t, ts, "/debug/flight?ring=slow")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slow dump status %d", resp.StatusCode)
	}
	evs := decodeFlightDump(t, dump)
	var batch *flight.Event
	for i := range evs {
		if evs[i].Endpoint == "batch" {
			batch = &evs[i]
			break
		}
	}
	if batch == nil {
		t.Fatalf("no batch event in the slow ring: %s", dump)
	}
	if !batch.Slow {
		t.Fatalf("slow-ring batch event not marked slow: %+v", batch)
	}
	if err := batch.CheckTotal(0.01); err != nil {
		t.Fatalf("batch stage cross-check: %v", err)
	}
	if frac := float64(batch.QueueWaitNS) / float64(batch.TotalNS); frac < 0.5 {
		t.Fatalf("cold batch on 1 worker attributed %.0f%% to queue_wait, want >= 50%% (%+v)",
			frac*100, batch)
	}
}

// TestDispositionHistogramsFedFromEveryRequest pins satellite 1: cache
// hits and coalesced requests must feed the endpoint × disposition
// latency histograms (the plain stage histograms only see misses).
func TestDispositionHistogramsFedFromEveryRequest(t *testing.T) {
	srv, ts := newTestServer(t)
	post(t, ts, "/v1/evaluate", `{"system":"si","workload":"crc32"}`)
	post(t, ts, "/v1/evaluate", `{"system":"si","workload":"crc32"}`)
	if n := srv.Metrics().DispositionCount("evaluate", "MISS"); n != 1 {
		t.Fatalf("MISS disposition count %d, want 1", n)
	}
	if n := srv.Metrics().DispositionCount("evaluate", "HIT"); n != 1 {
		t.Fatalf("HIT disposition count %d, want 1 — the hit path must be observed", n)
	}

	_, body := get(t, ts, "/metrics")
	text := string(body)
	for _, want := range []string{
		`ppatcd_request_disposition_seconds_count{endpoint="evaluate",disposition="HIT"} 1`,
		`ppatcd_request_disposition_seconds_count{endpoint="evaluate",disposition="MISS"} 1`,
		`ppatcd_slowest_request_seconds{endpoint="evaluate",disposition="HIT",request_id="`,
		"ppatcd_flight_dropped_total 0",
		"ppatcd_stream_subscribers 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestMetricsStreamDeliversAndReleases asserts the SSE surface: a
// subscriber receives request events as they complete, and a client
// disconnect releases the subscription (no leak to back-pressure the
// request path).
func TestMetricsStreamDeliversAndReleases(t *testing.T) {
	srv, ts := newTestServer(t)

	req, err := http.NewRequest("GET", ts.URL+"/v1/metrics/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("stream connect: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}

	// Subscription is live once the initial metrics snapshot arrives.
	r := bufio.NewReader(resp.Body)
	line, err := r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "event: metrics") {
		t.Fatalf("first stream line %q, err %v", line, err)
	}
	if n := srv.Recorder().Hub().Subscribers(); n != 1 {
		t.Fatalf("subscribers = %d, want 1", n)
	}

	post(t, ts, "/v1/evaluate", `{"system":"si","workload":"crc32"}`)
	deadline := time.After(5 * time.Second)
	got := make(chan flight.Event, 1)
	go func() {
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			if !strings.HasPrefix(line, "event: flight") {
				continue
			}
			data, err := r.ReadString('\n')
			if err != nil || !strings.HasPrefix(data, "data: ") {
				return
			}
			var e flight.Event
			if json.Unmarshal([]byte(strings.TrimPrefix(data, "data: ")), &e) == nil {
				got <- e
				return
			}
		}
	}()
	select {
	case e := <-got:
		if e.Endpoint != "evaluate" || e.Seq == 0 {
			t.Fatalf("streamed event %+v", e)
		}
	case <-deadline:
		t.Fatal("no flight event arrived on the stream")
	}

	// Disconnect must release the subscription.
	resp.Body.Close()
	for i := 0; i < 200; i++ {
		if srv.Recorder().Hub().Subscribers() == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("subscription leaked after disconnect: %d live", srv.Recorder().Hub().Subscribers())
}

// TestMetricsStreamKeepAlive pins the SSE keep-alive contract: an idle
// subscriber receives ": ping" comments and its subscription is
// released cleanly on disconnect.
func TestMetricsStreamKeepAlive(t *testing.T) {
	oldKA, oldHB := metricsStreamKeepAlive, metricsStreamHeartbeat
	metricsStreamKeepAlive = 30 * time.Millisecond
	metricsStreamHeartbeat = time.Hour // only pings on an idle stream
	defer func() { metricsStreamKeepAlive, metricsStreamHeartbeat = oldKA, oldHB }()

	srv, ts := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/metrics/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	sawPing := false
	deadline := time.Now().Add(5 * time.Second)
	for sc.Scan() && time.Now().Before(deadline) {
		if strings.HasPrefix(sc.Text(), ": ping") {
			sawPing = true
			break
		}
	}
	if !sawPing {
		t.Fatal("idle stream never received a keep-alive comment")
	}
	if got := srv.Recorder().Hub().Subscribers(); got != 1 {
		t.Fatalf("subscribers while connected = %d, want 1", got)
	}
	cancel() // client disconnects
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Recorder().Hub().Subscribers() == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("subscription not released after disconnect")
}

// TestSlowRequestLogged asserts the threshold-gated slow-request log
// line carries the attribution fields.
func TestSlowRequestLogged(t *testing.T) {
	var buf syncBuffer
	cfg := quietConfig()
	cfg.Workers = 1
	cfg.SlowThreshold = time.Nanosecond // everything is slow
	cfg.Logger = slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelWarn}))
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	post(t, ts, "/v1/evaluate", `{"system":"si","workload":"crc32"}`)
	logged := buf.String()
	if !strings.Contains(logged, `"msg":"slow request"`) {
		t.Fatalf("no slow-request log line:\n%s", logged)
	}
	for _, field := range []string{"queue_wait_ms", "compute_ms", "request_id", "pool_depth"} {
		if !strings.Contains(logged, field) {
			t.Fatalf("slow-request log missing %q:\n%s", field, logged)
		}
	}
}

// syncBuffer is a mutex-guarded bytes buffer for concurrent log writes.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var _ io.Writer = (*syncBuffer)(nil)
