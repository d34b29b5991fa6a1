package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ppatc/internal/dse"
)

// smokeSweep is the smallest interesting sweep: both systems on the
// cheapest kernel, 2 points.
const smokeSweep = `{"name": "smoke", "axes": {"workload": ["huff"]}}`

func newSweepServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// waitSweep polls a job until it reaches a terminal state.
func waitSweep(t *testing.T, ts *httptest.Server, id string) sweepStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		_, body := get(t, ts, "/v1/sweeps/"+id)
		var st sweepStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("bad status body %s: %v", body, err)
		}
		if sweepTerminal(st.Status) {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("sweep did not finish in time")
	return sweepStatus{}
}

// TestSweepLifecycle walks the whole async API: POST → poll → stream
// NDJSON → analyses → metrics.
func TestSweepLifecycle(t *testing.T) {
	srv, ts := newSweepServer(t, quietConfig())

	resp, body := post(t, ts, "/v1/sweeps", smokeSweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps: %d %s", resp.StatusCode, body)
	}
	var st sweepStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Total != 2 {
		t.Fatalf("unexpected job envelope: %+v", st)
	}

	final := waitSweep(t, ts, st.ID)
	if final.Status != SweepDone || final.Completed != 2 {
		t.Fatalf("final status %+v", final)
	}

	// Results stream: 2 NDJSON lines, indices in order.
	_, raw := get(t, ts, "/v1/sweeps/"+st.ID+"/results")
	results, err := dse.ReadNDJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("results stream: %v (%s)", err, raw)
	}
	if len(results) != 2 || results[0].Index != 0 || results[1].Index != 1 {
		t.Fatalf("results %+v", results)
	}
	for _, r := range results {
		if !r.Feasible || r.TCG <= 0 {
			t.Fatalf("empty result %+v", r)
		}
	}

	// A second stream of a done job replays byte-identically.
	_, raw2 := get(t, ts, "/v1/sweeps/"+st.ID+"/results")
	if !bytes.Equal(raw, raw2) {
		t.Error("replayed results differ")
	}

	// Analyses of the finished sweep.
	resp, body = get(t, ts, "/v1/sweeps/"+st.ID+"/frontier")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frontier: %d %s", resp.StatusCode, body)
	}
	var analyses struct {
		Frontier []dse.Result `json:"frontier"`
	}
	if err := json.Unmarshal(body, &analyses); err != nil {
		t.Fatal(err)
	}
	if len(analyses.Frontier) == 0 {
		t.Error("empty frontier")
	}

	// Idempotent POST: the same spec maps to the same (done) job.
	resp, body = post(t, ts, "/v1/sweeps", smokeSweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-POST: %d %s", resp.StatusCode, body)
	}
	var again sweepStatus
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if again.ID != st.ID || again.Status != SweepDone {
		t.Fatalf("re-POST landed on %+v, want done job %s", again, st.ID)
	}

	// The job shows up in the listing and in /metrics.
	_, body = get(t, ts, "/v1/sweeps")
	if !strings.Contains(string(body), st.ID) {
		t.Errorf("job %s missing from listing %s", st.ID, body)
	}
	if got := srv.Metrics().SweepPoints.Load(); got != 2 {
		t.Errorf("sweep points counter = %d, want 2", got)
	}
	_, body = get(t, ts, "/metrics")
	for _, want := range []string{"ppatcd_sweep_points_total 2", `ppatcd_sweep_jobs_total{status="done"} 1`, "ppatcd_sweep_queue_depth"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestSweepCancelQueued: DELETE on a queued job cancels it before it
// runs.
func TestSweepCancelQueued(t *testing.T) {
	// No runners pick jobs up: SweepRunners=1 but the runner is starved
	// by pointing the queue at a job that never finishes is fragile;
	// instead cancel in the queued window by stopping the runner pool —
	// simplest deterministic route: a server whose base context is
	// already cancelled leaves every job queued.
	cfg := quietConfig()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := New(cfg)
	srv.cancel() // runners exit; jobs stay queued
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := post(t, ts, "/v1/sweeps", smokeSweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: %d %s", resp.StatusCode, body)
	}
	var st sweepStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+st.ID, nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	var cancelled sweepStatus
	if err := json.Unmarshal(b, &cancelled); err != nil {
		t.Fatal(err)
	}
	if cancelled.Status != SweepCancelled {
		t.Fatalf("status after DELETE = %q, want cancelled", cancelled.Status)
	}
}

// TestOversizeSweepRejected: specs of a few hundred bytes asking for
// 1e10 points, or for more points than int holds, once ran the daemon
// out of memory (a fatal error, not a recoverable panic) or panicked in
// make. They now get a 400 JSON error, and the daemon serves the next
// request.
func TestOversizeSweepRejected(t *testing.T) {
	_, ts := newSweepServer(t, quietConfig())
	axis := func(name string, n int) string {
		return fmt.Sprintf(`%q: {"linspace": {"lo": 1, "hi": 2, "n": %d}}`, name, n)
	}
	for _, spec := range []string{
		`{"axes": {` + axis("clock_mhz", 100000) + `, ` + axis("lifetime_months", 100000) + `}}`,
		`{"axes": {` + strings.Join([]string{
			axis("clock_mhz", 10000), axis("lifetime_months", 10000), axis("yield_d0", 10000),
			axis("m3d_embodied_scale", 10000), axis("ci_use_scale", 10000),
		}, ", ") + `}}`,
	} {
		resp, body := post(t, ts, "/v1/sweeps", spec)
		var e httpError
		if resp.StatusCode != http.StatusBadRequest || resp.Header.Get("Content-Type") != "application/json" ||
			json.Unmarshal(body, &e) != nil || !strings.Contains(e.Error, "points") {
			t.Errorf("oversize sweep: %d %q %s, want 400 JSON naming the point count",
				resp.StatusCode, resp.Header.Get("Content-Type"), body)
		}
	}
	if resp, body := post(t, ts, "/v1/sweeps", smokeSweep); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("next sweep: %d %s, want 202", resp.StatusCode, body)
	}
}

// TestSweepValidation: bad specs and unknown jobs map to 4xx.
func TestSweepValidation(t *testing.T) {
	_, ts := newSweepServer(t, quietConfig())
	resp, _ := post(t, ts, "/v1/sweeps", `{"axes": {"system": ["vacuum-tube"]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown system: %d, want 400", resp.StatusCode)
	}
	resp, _ = get(t, ts, "/v1/sweeps/no-such-job")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", resp.StatusCode)
	}
	cfg := quietConfig()
	cfg.SweepMaxPoints = 1
	_, ts2 := newSweepServer(t, cfg)
	resp, body := post(t, ts2, "/v1/sweeps", smokeSweep)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "cap is 1") {
		t.Errorf("oversized sweep: %d %s, want 400 with cap message", resp.StatusCode, body)
	}
}
