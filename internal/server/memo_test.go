package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ppatc/internal/carbon"
	"ppatc/internal/core"
	"ppatc/internal/embench"
	"ppatc/internal/obs"
)

// memoRequest is one request of the stage memo's reachable domain.
type memoRequest struct{ path, body string }

// memoDomain lists every request the handlers' validation lets reach the
// stage memo: evaluate for each bundled system × workload × grid, tcdp
// for each workload × grid, and the suite for each grid.
func memoDomain() []memoRequest {
	var reqs []memoRequest
	for _, g := range carbon.Grids() {
		for _, w := range embench.Workloads() {
			for _, sys := range core.Systems() {
				reqs = append(reqs, memoRequest{"/v1/evaluate",
					fmt.Sprintf(`{"system":%q,"workload":%q,"grid":%q}`, sys.Name, w.Name, g.Name)})
			}
			reqs = append(reqs, memoRequest{"/v1/tcdp",
				fmt.Sprintf(`{"workload":%q,"grid":%q}`, w.Name, g.Name)})
		}
		reqs = append(reqs, memoRequest{"/v1/suite", fmt.Sprintf(`{"grid":%q}`, g.Name)})
	}
	return reqs
}

// tracedEnvelope is the ?trace=1 response shape.
type tracedEnvelope struct {
	Result json.RawMessage `json:"result"`
	Trace  struct {
		Spans []obs.SpanNode `json:"spans"`
	} `json:"trace"`
}

// postTraced issues path?trace=1 and returns the envelope, with Result
// re-indented to the shape the endpoint serves untraced (the envelope
// nests it one level deeper), so it compares byte for byte with a
// cached body. It reports failures as errors, so it is safe to call
// from any goroutine.
func postTraced(ts *httptest.Server, path, body string) (tracedEnvelope, error) {
	var env tracedEnvelope
	resp, err := http.Post(ts.URL+path+"?trace=1", "application/json", strings.NewReader(body))
	if err != nil {
		return env, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return env, err
	}
	if resp.StatusCode != http.StatusOK {
		return env, fmt.Errorf("traced %s: status %d: %s", path, resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, &env); err != nil {
		return env, fmt.Errorf("decode traced %s: %w", path, err)
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, env.Result, "", "  "); err != nil {
		return env, fmt.Errorf("re-indent traced %s result: %w", path, err)
	}
	buf.WriteByte('\n')
	env.Result = buf.Bytes()
	return env, nil
}

// stageSpanNames lists the pipeline-stage spans under one evaluate span.
func stageSpanNames(ev obs.SpanNode) string {
	var names []string
	for _, c := range ev.Children {
		names = append(names, c.Name)
	}
	return strings.Join(names, ",")
}

// TestTracedRequestBypassesStageMemo pins the ?trace=1 contract under a
// warm stage memo: the traced request still runs all five stages and
// emits their spans, touches no memo counter, and returns exactly the
// cached body.
func TestTracedRequestBypassesStageMemo(t *testing.T) {
	srv, ts := newTestServer(t)
	resp, cached := post(t, ts, "/v1/evaluate", evalBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm: status %d: %s", resp.StatusCode, cached)
	}
	before := srv.memo.Stats()

	env, err := postTraced(ts, "/v1/evaluate", evalBody)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Trace.Spans) != 1 || env.Trace.Spans[0].Name != "evaluate" {
		t.Fatalf("want one evaluate root span, got %+v", env.Trace.Spans)
	}
	if got, want := stageSpanNames(env.Trace.Spans[0]), strings.Join(core.Stages(), ","); got != want {
		t.Errorf("traced stage spans = %s, want %s", got, want)
	}
	if !bytes.Equal(env.Result, cached) {
		t.Errorf("traced result differs from the cached body:\n%s\nvs\n%s", env.Result, cached)
	}
	if after := srv.memo.Stats(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("traced request touched the stage memo: %v -> %v", before, after)
	}
}

// TestTracedTCDPRunsProductionShape pins a traced pair evaluation to the
// stage DAG a served miss runs: one "leaves" span holding the one
// simulation and both eDRAM builds, then each design's remaining stages
// once. The request evaluates through a memo of its own, so it returns
// the cached body and leaves the daemon memo's counters as they were.
func TestTracedTCDPRunsProductionShape(t *testing.T) {
	srv, ts := newTestServer(t)
	const body = `{"workload":"crc32","months":24}`
	resp, cached := post(t, ts, "/v1/tcdp", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm: status %d: %s", resp.StatusCode, cached)
	}
	before := srv.memo.Stats()

	env, err := postTraced(ts, "/v1/tcdp", body)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	var walk func([]obs.SpanNode)
	walk = func(nodes []obs.SpanNode) {
		for _, n := range nodes {
			counts[n.Name]++
			walk(n.Children)
		}
	}
	walk(env.Trace.Spans)
	want := map[string]int{"leaves": 1, "evaluate": 2,
		"embench": 1, "edram": 2, "synth": 2, "floorplan": 2, "carbon": 2}
	if fmt.Sprint(counts) != fmt.Sprint(want) {
		t.Errorf("traced tcdp spans = %v, want %v", counts, want)
	}
	if len(env.Trace.Spans) == 0 || env.Trace.Spans[0].Name != "leaves" {
		t.Fatalf("first root span is not the leaf fan-out: %+v", env.Trace.Spans)
	}
	if !bytes.Equal(env.Result, cached) {
		t.Errorf("traced result differs from the cached body:\n%s\nvs\n%s", env.Result, cached)
	}
	if after := srv.memo.Stats(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("traced request touched the daemon memo: %v -> %v", before, after)
	}
}

// TestStageMemoCountersOnMetrics pins the /metrics memo counters: a
// second cold tcdp request on the same workload at a new lifetime misses
// the response cache but replays every stage from the memo.
func TestStageMemoCountersOnMetrics(t *testing.T) {
	srv, ts := newTestServer(t)
	tcdp := func(months int) {
		t.Helper()
		resp, b := post(t, ts, "/v1/tcdp", fmt.Sprintf(`{"workload":"crc32","months":%d}`, months))
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "MISS" {
			t.Fatalf("tcdp %d months: status %d, X-Cache %q: %s",
				months, resp.StatusCode, resp.Header.Get("X-Cache"), b)
		}
	}
	tcdp(24)
	first := srv.memo.Stats()
	tcdp(36)
	stats := srv.memo.Stats()
	_, b := get(t, ts, "/metrics")
	body := string(b)
	for _, stage := range core.Stages() {
		if first[stage].Misses == 0 {
			t.Errorf("%s: the first request ran no stage", stage)
		}
		if stats[stage].Misses != first[stage].Misses {
			t.Errorf("%s misses %d -> %d: the second lifetime must run no stage", stage, first[stage].Misses, stats[stage].Misses)
		}
		// Both designs replay every stage.
		if stats[stage].Hits-first[stage].Hits != 2 {
			t.Errorf("%s hits %d -> %d, want +2", stage, first[stage].Hits, stats[stage].Hits)
		}
		for _, line := range []string{
			fmt.Sprintf("ppatcd_stage_memo_hits_total{stage=%q} %d\n", stage, stats[stage].Hits),
			fmt.Sprintf("ppatcd_stage_memo_misses_total{stage=%q} %d\n", stage, stats[stage].Misses),
		} {
			if !strings.Contains(body, line) {
				t.Errorf("/metrics missing %q", line)
			}
		}
	}
}

// TestStageMemoConcurrentWhatIfs races cold what-ifs at distinct
// lifetimes onto a cold memo: every stage must run exactly once per key
// however the requests interleave, and every other stage call replays.
func TestStageMemoConcurrentWhatIfs(t *testing.T) {
	srv, ts := newTestServer(t)
	const requests = 16
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(months int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/tcdp", "application/json",
				strings.NewReader(fmt.Sprintf(`{"workload":"huff","months":%d}`, months)))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var out struct {
				Months float64 `json:"months"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("%d months: status %d, decode error %v", months, resp.StatusCode, err)
			} else if out.Months != float64(months) {
				t.Errorf("%d months: answered for %v months", months, out.Months)
			}
		}(i + 1)
	}
	wg.Wait()
	wantMisses := map[string]int64{"embench": 1, "edram": 2, "synth": 2, "floorplan": 2, "carbon": 2}
	for stage, st := range srv.memo.Stats() {
		if st.Misses != wantMisses[stage] {
			t.Errorf("%s misses = %d, want %d", stage, st.Misses, wantMisses[stage])
		}
		// Each what-if evaluates both designs, calling every stage once
		// each. The leaf stages (embench, edram) run in the pair's
		// fan-out before either evaluation, so both evaluations replay
		// them: one hit per evaluation on top of the runs.
		if stage == core.StageEmbench || stage == core.StageEDRAM {
			if st.Hits != 2*requests {
				t.Errorf("%s hits = %d, want %d", stage, st.Hits, 2*requests)
			}
		} else if st.Hits+st.Misses != 2*requests {
			t.Errorf("%s calls = %d, want %d", stage, st.Hits+st.Misses, 2*requests)
		}
	}
}

// TestStageMemoIdentityAndBound sweeps the whole validated request
// domain twice through a one-entry response cache, so every request
// reaches the stage memo. Every memoized body must equal byte for byte
// the fresh result of a ?trace=1 request, which evaluates through a
// memo of its own, and the memo must hold exactly the bounded key set
// — if a future endpoint widens the keys a request can reach, the miss
// counts here move.
func TestStageMemoIdentityAndBound(t *testing.T) {
	cfg := quietConfig()
	cfg.CacheEntries, cfg.CacheShards = 1, 1
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	reqs := memoDomain()
	// embench per workload, edram/synth/floorplan per design, carbon per
	// design × grid: 22 entries.
	wantMisses := map[string]int64{"embench": 8, "edram": 2, "synth": 2, "floorplan": 2, "carbon": 8}
	bodies := make([][]byte, len(reqs))
	for pass := 0; pass < 2; pass++ {
		for i, q := range reqs {
			resp, b := post(t, ts, q.path, q.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("pass %d %s %s: status %d: %s", pass, q.path, q.body, resp.StatusCode, b)
			}
			if got := resp.Header.Get("X-Cache"); got != "MISS" {
				t.Fatalf("pass %d %s %s: X-Cache %q, want MISS (the memo is under test, not the cache)", pass, q.path, q.body, got)
			}
			if pass == 0 {
				bodies[i] = b
			} else if !bytes.Equal(b, bodies[i]) {
				t.Errorf("%s %s: second pass body differs from the first", q.path, q.body)
			}
		}
		stats := srv.memo.Stats()
		for _, stage := range core.Stages() {
			if got := stats[stage].Misses; got != wantMisses[stage] {
				t.Errorf("after pass %d: %s misses = %d, want %d", pass, stage, got, wantMisses[stage])
			}
		}
	}

	// The fresh references re-run all five stages for each of the
	// domain's 192 evaluations: skipped in -short runs, and narrowed to
	// the first grid's requests under the race detector.
	if testing.Short() {
		t.Skip("fresh-memo identity sweep")
	}
	if raceEnabled {
		reqs = reqs[:len(reqs)/len(carbon.Grids())]
	}
	// One client per pool worker keeps every worker busy.
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				q := reqs[i]
				env, err := postTraced(ts, q.path, q.body)
				if err != nil {
					t.Error(err)
				} else if !bytes.Equal(env.Result, bodies[i]) {
					t.Errorf("%s %s: memoized body differs from the fresh result", q.path, q.body)
				}
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
}
