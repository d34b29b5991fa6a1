package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ppatc/internal/carbon"
	"ppatc/internal/embench"
)

func quietConfig() Config {
	return Config{
		Workers:      4,
		QueueDepth:   16,
		CacheEntries: 32,
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(quietConfig())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

func TestDiscoveryAndHealth(t *testing.T) {
	_, ts := newTestServer(t)

	resp, b := get(t, ts, "/v1/grids")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grids status %d: %s", resp.StatusCode, b)
	}
	var grids []struct {
		Name             string  `json:"name"`
		IntensityGPerKWh float64 `json:"intensity_g_per_kwh"`
	}
	if err := json.Unmarshal(b, &grids); err != nil {
		t.Fatalf("decode grids: %v", err)
	}
	if len(grids) != 4 || grids[0].Name != "US" || grids[0].IntensityGPerKWh != 380 {
		t.Errorf("unexpected grids: %+v", grids)
	}

	resp, b = get(t, ts, "/v1/workloads")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("workloads status %d", resp.StatusCode)
	}
	var workloads []struct{ Name, Description string }
	if err := json.Unmarshal(b, &workloads); err != nil {
		t.Fatalf("decode workloads: %v", err)
	}
	if len(workloads) < 8 {
		t.Errorf("got %d workloads, want >= 8", len(workloads))
	}

	resp, b = get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(b, []byte(`"ok"`)) {
		t.Errorf("healthz status %d body %s", resp.StatusCode, b)
	}
}

func TestEvaluateCacheHit(t *testing.T) {
	srv, ts := newTestServer(t)
	body := `{"system":"si","workload":"crc32","grid":"US"}`

	resp1, b1 := post(t, ts, "/v1/evaluate", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first evaluate: status %d: %s", resp1.StatusCode, b1)
	}
	if h := resp1.Header.Get("X-Cache"); h != "MISS" {
		t.Errorf("first evaluate X-Cache = %q, want MISS", h)
	}

	// A differently-cased but equivalent request must be the same cache key.
	resp2, b2 := post(t, ts, "/v1/evaluate", `{"system":"ALL-SI","workload":"crc32","grid":"us"}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second evaluate: status %d: %s", resp2.StatusCode, b2)
	}
	if h := resp2.Header.Get("X-Cache"); h != "HIT" {
		t.Errorf("second evaluate X-Cache = %q, want HIT", h)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("cache hit is not byte-identical to the original response")
	}

	var decoded struct {
		System   string `json:"system"`
		Workload string `json:"workload"`
		Cycles   uint64 `json:"cycles"`
	}
	if err := json.Unmarshal(b1, &decoded); err != nil {
		t.Fatalf("decode evaluate: %v", err)
	}
	if decoded.System != "all-Si" || decoded.Workload != "crc32" || decoded.Cycles == 0 {
		t.Errorf("unexpected evaluation: %+v", decoded)
	}

	if hits := srv.Metrics().CacheHits.Load(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
	if misses := srv.Metrics().CacheMisses.Load(); misses != 1 {
		t.Errorf("cache misses = %d, want 1", misses)
	}

	// The counters must be visible at /metrics.
	_, mb := get(t, ts, "/metrics")
	for _, want := range []string{
		"ppatcd_cache_hits_total 1",
		"ppatcd_cache_misses_total 1",
		`ppatcd_requests_total{endpoint="evaluate"} 2`,
		`ppatcd_request_seconds_count{endpoint="evaluate"} 2`,
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestConcurrentEvaluate(t *testing.T) {
	srv, ts := newTestServer(t)
	requests := []string{
		`{"system":"si","workload":"crc32"}`,
		`{"system":"m3d","workload":"crc32"}`,
		`{"system":"si","workload":"sieve"}`,
	}
	const perRequest = 6

	var wg sync.WaitGroup
	bodies := make([][]byte, len(requests)*perRequest)
	errs := make([]error, len(requests)*perRequest)
	for i, req := range requests {
		for j := 0; j < perRequest; j++ {
			wg.Add(1)
			go func(slot int, body string) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
				if err != nil {
					errs[slot] = err
					return
				}
				defer resp.Body.Close()
				b, err := io.ReadAll(resp.Body)
				if err != nil {
					errs[slot] = err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs[slot] = fmt.Errorf("status %d: %s", resp.StatusCode, b)
					return
				}
				bodies[slot] = b
			}(i*perRequest+j, req)
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	// Every response for the same request must be byte-identical.
	for i := range requests {
		first := bodies[i*perRequest]
		for j := 1; j < perRequest; j++ {
			if !bytes.Equal(first, bodies[i*perRequest+j]) {
				t.Errorf("request %d: response %d differs from first", i, j)
			}
		}
	}
	m := srv.Metrics()
	total := m.Requests("evaluate")
	if total != int64(len(requests)*perRequest) {
		t.Errorf("requests_total = %d, want %d", total, len(requests)*perRequest)
	}
	if m.CacheHits.Load()+m.CacheMisses.Load() != total {
		t.Errorf("hits+misses = %d, want %d", m.CacheHits.Load()+m.CacheMisses.Load(), total)
	}
}

func TestTCDPEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, b := post(t, ts, "/v1/tcdp", `{"workload":"crc32","months":24}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tcdp status %d: %s", resp.StatusCode, b)
	}
	var out struct {
		Workload  string  `json:"workload"`
		Grid      string  `json:"grid"`
		Months    float64 `json:"months"`
		TCDPRatio float64 `json:"tcdp_ratio"`
		Si        struct {
			TCG               float64 `json:"tc_g"`
			EmbodiedOpCrossMo float64 `json:"embodied_operational_crossover_months"`
		} `json:"si"`
		M3D struct {
			TCG float64 `json:"tc_g"`
		} `json:"m3d"`
		Isoline []struct {
			OpScale       float64 `json:"op_scale"`
			EmbodiedScale float64 `json:"embodied_scale"`
		} `json:"isoline"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("decode tcdp: %v", err)
	}
	if out.Workload != "crc32" || out.Grid != "US" || out.Months != 24 {
		t.Errorf("echoed parameters wrong: %+v", out)
	}
	if out.TCDPRatio <= 0.5 || out.TCDPRatio >= 2 {
		t.Errorf("tcdp_ratio = %v, want a ratio near 1", out.TCDPRatio)
	}
	if out.Si.TCG <= 0 || out.M3D.TCG <= 0 {
		t.Errorf("total carbon must be positive: %+v", out)
	}
	if out.Si.EmbodiedOpCrossMo <= 0 {
		t.Errorf("crossover must be positive: %v", out.Si.EmbodiedOpCrossMo)
	}
	if len(out.Isoline) != 6 {
		t.Errorf("got %d isoline points, want 6", len(out.Isoline))
	}
}

// TestTCDPInputBounds pins the what-if input range: at the bounds every
// bundled workload and grid answers 200 (each tCDP quantity finite, so
// the body encodes), and past them the request is a 400, not the 500 of
// an isoline that overflowed to -Inf (op_scales [1e308], found by
// FuzzRequestBodies).
func TestTCDPInputBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates every workload on both designs")
	}
	srv := New(quietConfig())
	defer srv.Close()
	do := func(body string) (int, string) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tcdp", strings.NewReader(body)))
		return rec.Code, rec.Body.String()
	}
	for _, wl := range embench.Workloads() {
		for _, g := range carbon.Grids() {
			for _, months := range []float64{math.SmallestNonzeroFloat64, maxTCDPInput} {
				body := fmt.Sprintf(`{"workload":%q,"grid":%q,"months":%g,"op_scales":[%g,%g]}`,
					wl.Name, g.Name, months, math.SmallestNonzeroFloat64, float64(maxTCDPInput))
				if code, got := do(body); code != http.StatusOK {
					t.Errorf("%s: %d %s", body, code, got)
				}
			}
		}
	}
	for _, body := range []string{
		`{"op_scales":[1e308]}`,
		`{"op_scales":[1000001]}`,
		`{"months":1e308}`,
		`{"months":1000001}`,
	} {
		if code, got := do(body); code != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", body, code, got)
		}
	}
}

func TestSuiteEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("suite evaluates every workload on both designs")
	}
	_, ts := newTestServer(t)
	resp, b := post(t, ts, "/v1/suite", `{"grid":"US"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("suite status %d: %s", resp.StatusCode, b)
	}
	var rows []struct {
		Workload    string  `json:"workload"`
		Cycles      uint64  `json:"cycles"`
		TCDPRatio24 float64 `json:"tcdp_ratio_24mo"`
	}
	if err := json.Unmarshal(b, &rows); err != nil {
		t.Fatalf("decode suite: %v", err)
	}
	if len(rows) < 8 {
		t.Fatalf("got %d rows, want >= 8", len(rows))
	}
	for _, r := range rows {
		if r.Cycles == 0 || r.TCDPRatio24 <= 0 {
			t.Errorf("degenerate row: %+v", r)
		}
	}
	// Second call must come from the cache, byte-identical.
	resp2, b2 := post(t, ts, "/v1/suite", `{"grid":"US"}`)
	if resp2.Header.Get("X-Cache") != "HIT" || !bytes.Equal(b, b2) {
		t.Error("repeated suite request should be a byte-identical cache hit")
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, path, body string
		wantStatus       int
	}{
		{"bad json", "/v1/evaluate", `{"system":`, http.StatusBadRequest},
		{"unknown field", "/v1/evaluate", `{"system":"si","workload":"crc32","bogus":1}`, http.StatusBadRequest},
		{"unknown system", "/v1/evaluate", `{"system":"quantum","workload":"crc32"}`, http.StatusBadRequest},
		{"unknown workload", "/v1/evaluate", `{"system":"si","workload":"doom"}`, http.StatusBadRequest},
		{"unknown grid", "/v1/evaluate", `{"system":"si","workload":"crc32","grid":"Mars"}`, http.StatusBadRequest},
		{"bad months", "/v1/tcdp", `{"months":-3}`, http.StatusBadRequest},
		{"bad scales", "/v1/tcdp", `{"op_scales":[0.5,-1]}`, http.StatusBadRequest},
		{"unknown suite grid", "/v1/suite", `{"grid":"Mars"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, b := post(t, ts, c.path, c.body)
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.wantStatus, b)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(b, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not a JSON envelope: %s", c.name, b)
		}
	}

	// Grid errors must list the valid names (the GridByName contract).
	_, b := post(t, ts, "/v1/evaluate", `{"system":"si","workload":"crc32","grid":"Mars"}`)
	for _, name := range []string{"US", "Coal", "Solar", "Taiwan"} {
		if !bytes.Contains(b, []byte(name)) {
			t.Errorf("grid error should list %q: %s", name, b)
		}
	}

	// Method mismatches are rejected by the router.
	resp, _ := get(t, ts, "/v1/evaluate")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/evaluate status %d, want 405", resp.StatusCode)
	}
}

// TestReadinessLivenessSplit pins the drain ordering: BeginShutdown
// flips /healthz to 503 draining before any listener work, while
// /livez stays 200.
func TestReadinessLivenessSplit(t *testing.T) {
	srv, ts := newTestServer(t)

	resp, _ := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy /healthz = %d", resp.StatusCode)
	}

	srv.BeginShutdown()

	resp, body := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /healthz = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"draining"`) {
		t.Errorf("draining /healthz body: %s", body)
	}
	if resp, _ := get(t, ts, "/livez"); resp.StatusCode != http.StatusOK {
		t.Errorf("draining /livez = %d, want 200", resp.StatusCode)
	}
}

// TestGracefulDrain verifies the SIGTERM path's contract: http.Server.
// Shutdown (what the daemon calls on signal) lets an in-flight evaluation
// finish and respond before the listener closes.
func TestGracefulDrain(t *testing.T) {
	srv := New(quietConfig())
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)

	type result struct {
		status int
		body   []byte
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/evaluate",
			"application/json", strings.NewReader(`{"system":"m3d","workload":"sieve"}`))
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		done <- result{status: resp.StatusCode, body: b, err: err}
	}()

	// Give the request a moment to get in flight, then shut down.
	time.Sleep(50 * time.Millisecond)
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request status %d during drain: %s", r.status, r.body)
	}
}
