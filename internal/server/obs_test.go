package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ppatc/internal/core"
	"ppatc/internal/obs"
)

const evalBody = `{"system":"si","workload":"crc32","grid":"US"}`

func TestRequestIDAdoptedAndEchoed(t *testing.T) {
	_, ts := newTestServer(t)

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/evaluate", strings.NewReader(evalBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "caller-supplied-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-supplied-42" {
		t.Errorf("X-Request-ID = %q, want the caller's ID echoed", got)
	}

	// Without a caller ID the server must mint one.
	resp2, _ := post(t, ts, "/v1/evaluate", evalBody)
	if got := resp2.Header.Get("X-Request-ID"); got == "" {
		t.Error("server did not assign a request ID")
	}
}

func TestTraceQueryReturnsSpanTree(t *testing.T) {
	_, ts := newTestServer(t)

	resp, b := post(t, ts, "/v1/evaluate?trace=1", evalBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Cache"); got != "BYPASS" {
		t.Errorf("X-Cache = %q, want BYPASS (traced requests skip the cache)", got)
	}
	var env struct {
		RequestID string          `json:"request_id"`
		Result    json.RawMessage `json:"result"`
		Trace     struct {
			ID    string         `json:"id"`
			Spans []obs.SpanNode `json:"spans"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatalf("decode envelope: %v\n%s", err, b)
	}
	if env.RequestID == "" || env.RequestID != resp.Header.Get("X-Request-ID") {
		t.Errorf("envelope request_id %q != header %q", env.RequestID, resp.Header.Get("X-Request-ID"))
	}
	if env.Trace.ID != env.RequestID {
		t.Errorf("trace id %q != request id %q", env.Trace.ID, env.RequestID)
	}
	// The result inside the envelope is the normal evaluation payload.
	var result struct {
		System string `json:"system"`
	}
	if err := json.Unmarshal(env.Result, &result); err != nil {
		t.Fatalf("decode inner result: %v", err)
	}
	if result.System == "" {
		t.Error("inner result missing system field")
	}
	// The span tree carries the full pipeline.
	if len(env.Trace.Spans) != 1 || env.Trace.Spans[0].Name != "evaluate" {
		t.Fatalf("want one evaluate root span, got %+v", env.Trace.Spans)
	}
	var stages []string
	for _, c := range env.Trace.Spans[0].Children {
		stages = append(stages, c.Name)
	}
	want := core.Stages()
	if fmt.Sprint(stages) != fmt.Sprint(want) {
		t.Errorf("stage spans = %v, want %v", stages, want)
	}

	// A traced request must not have populated the cache: the next plain
	// request is a MISS, not a HIT.
	resp2, _ := post(t, ts, "/v1/evaluate", evalBody)
	if got := resp2.Header.Get("X-Cache"); got != "MISS" {
		t.Errorf("request after traced run: X-Cache = %q, want MISS", got)
	}
}

func TestStageLatencyHistogramsExposed(t *testing.T) {
	srv, ts := newTestServer(t)

	post(t, ts, "/v1/evaluate", evalBody)
	_, b := get(t, ts, "/metrics")
	body := string(b)
	for _, stage := range core.Stages() {
		line := fmt.Sprintf("ppatcd_stage_seconds_count{stage=%q} 1", stage)
		if !strings.Contains(body, line) {
			t.Errorf("/metrics missing %q after one evaluation", line)
		}
		if got := stageRunCount(srv, stage); got != 1 {
			t.Errorf("stageRunCount(%q) = %d, want 1", stage, got)
		}
	}
	// A cache hit computes nothing, so stage counts must not move.
	post(t, ts, "/v1/evaluate", evalBody)
	if got := stageRunCount(srv, core.StageEmbench); got != 1 {
		t.Errorf("cache hit advanced stage histogram to %d", got)
	}
}

// stageRunCount counts the runs of stage in srv's stage-memo record.
func stageRunCount(srv *Server, stage string) int64 {
	var n int64
	for _, run := range srv.memo.StageRuns() {
		if run.Stage == stage {
			n++
		}
	}
	return n
}

// scrapeStageCounts reads each stage's ppatcd_stage_seconds_count and
// ppatcd_stage_memo_misses_total from one /metrics scrape.
func scrapeStageCounts(t *testing.T, ts *httptest.Server) (runs, misses map[string]int64) {
	t.Helper()
	_, b := get(t, ts, "/metrics")
	runs, misses = map[string]int64{}, map[string]int64{}
	for _, line := range strings.Split(string(b), "\n") {
		var stage string
		var n int64
		if _, err := fmt.Sscanf(line, "ppatcd_stage_seconds_count{stage=%q} %d", &stage, &n); err == nil {
			runs[stage] = n
		} else if _, err := fmt.Sscanf(line, "ppatcd_stage_memo_misses_total{stage=%q} %d", &stage, &n); err == nil {
			misses[stage] = n
		}
	}
	return runs, misses
}

// TestStageSecondsCountEqualsMemoMisses pins the one stage clock: the
// stage histograms are read from the memo's record of its runs, so after
// cold evaluate, tcdp and suite requests each stage's observation count
// equals its memo misses, and a ?trace=1 request, which runs every stage
// outside the memo, moves neither.
func TestStageSecondsCountEqualsMemoMisses(t *testing.T) {
	_, ts := newTestServer(t)
	for _, q := range []memoRequest{
		{"/v1/evaluate", evalBody},
		{"/v1/tcdp", `{"workload":"huff","grid":"Coal"}`},
		{"/v1/suite", `{"grid":"Solar"}`},
	} {
		if resp, b := post(t, ts, q.path, q.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q.path, resp.StatusCode, b)
		}
	}
	runs, misses := scrapeStageCounts(t, ts)
	for _, stage := range core.Stages() {
		if misses[stage] == 0 {
			t.Errorf("%s: no memo miss after cold requests", stage)
		}
		if runs[stage] != misses[stage] {
			t.Errorf("%s: ppatcd_stage_seconds_count %d, memo misses %d", stage, runs[stage], misses[stage])
		}
	}

	if resp, b := post(t, ts, "/v1/evaluate?trace=1", `{"system":"m3d","workload":"edn"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("traced: status %d: %s", resp.StatusCode, b)
	}
	runs2, misses2 := scrapeStageCounts(t, ts)
	if fmt.Sprint(runs2) != fmt.Sprint(runs) || fmt.Sprint(misses2) != fmt.Sprint(misses) {
		t.Errorf("traced request moved the stage counts: runs %v -> %v, misses %v -> %v", runs, runs2, misses, misses2)
	}
}

func TestRequestLogCarriesDispositionAndID(t *testing.T) {
	var buf bytes.Buffer
	cfg := quietConfig()
	cfg.Logger = slog.New(slog.NewJSONHandler(&buf, nil))
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	post(t, ts, "/v1/evaluate", evalBody) // MISS
	post(t, ts, "/v1/evaluate", evalBody) // HIT

	type record struct {
		Msg        string  `json:"msg"`
		Endpoint   string  `json:"endpoint"`
		Status     int     `json:"status"`
		DurationMS float64 `json:"duration_ms"`
		Cache      string  `json:"cache"`
		RequestID  string  `json:"request_id"`
	}
	var dispositions []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		if rec.Msg != "request" || rec.Endpoint != "evaluate" {
			continue
		}
		if rec.Status != http.StatusOK {
			t.Errorf("log status = %d, want 200", rec.Status)
		}
		if rec.DurationMS < 0 {
			t.Errorf("log duration_ms = %v, want >= 0", rec.DurationMS)
		}
		if rec.RequestID == "" {
			t.Error("log record missing request_id")
		}
		dispositions = append(dispositions, rec.Cache)
	}
	if len(dispositions) != 2 || dispositions[0] != "MISS" || dispositions[1] != "HIT" {
		t.Errorf("logged cache dispositions = %v, want [MISS HIT]", dispositions)
	}
}

func TestPprofGatedByConfig(t *testing.T) {
	// Default config: pprof is off.
	_, ts := newTestServer(t)
	resp, _ := get(t, ts, "/debug/pprof/")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: status %d, want 404", resp.StatusCode)
	}

	cfg := quietConfig()
	cfg.EnablePprof = true
	srv := New(cfg)
	ts2 := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts2.Close()
		srv.Close()
	})
	resp2, b := get(t, ts2, "/debug/pprof/")
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("pprof on: status %d: %s", resp2.StatusCode, b)
	}
}
