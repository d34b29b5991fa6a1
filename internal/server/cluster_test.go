package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ppatc/internal/carbon"
	"ppatc/internal/cluster"
	"ppatc/internal/core"
	"ppatc/internal/dse"
	"ppatc/internal/embench"
)

// clusterSweep expands to 8 points (2 systems × 1 workload × 2 grids ×
// 2 lifetimes) — enough to shard meaningfully at range size 2.
const clusterSweep = `{"name": "clu", "axes": {"workload": ["huff"], "grid": {"names": ["US", "Coal"]}, "lifetime_months": {"values": [12, 24]}}}`

func clusterConfig() Config {
	cfg := quietConfig()
	cfg.ClusterGossipInterval = time.Hour // gossip driven manually in tests
	// Generous lease: a range in honest progress must never expire and
	// be stolen (the race detector slows evaluation ~10×, and a steal
	// here re-executes points, breaking exactly-once assertions). The
	// worker-death test shortens it deliberately to provoke a steal.
	cfg.ClusterLeaseTTL = 10 * time.Second
	cfg.ClusterRangeSize = 2
	return cfg
}

// startClusterNode brings up one clustered server on an httptest
// listener, advertising its real URL.
func startClusterNode(t *testing.T, id string, cfg Config, join ...string) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	if err := srv.StartCluster(id, ts.URL, join); err != nil {
		t.Fatalf("StartCluster(%s): %v", id, err)
	}
	return srv, ts
}

// twoNodeCluster starts node-a and node-b, joined and converged.
func twoNodeCluster(t *testing.T) (a, b *Server, tsA, tsB *httptest.Server) {
	t.Helper()
	a, tsA = startClusterNode(t, "node-a", clusterConfig())
	b, tsB = startClusterNode(t, "node-b", clusterConfig(), tsA.URL)
	b.clusterNode().Gossip()
	if a.clusterNode().AliveCount() != 2 || b.clusterNode().AliveCount() != 2 {
		t.Fatal("cluster did not converge")
	}
	return a, b, tsA, tsB
}

// evaluateOwnedBy finds an evaluate request whose canonical key the
// given node owns on the two-node ring.
func evaluateOwnedBy(t *testing.T, owner string) (body, key string) {
	t.Helper()
	ring := cluster.NewRing(cluster.DefaultVNodes, "node-a", "node-b")
	for _, sys := range []string{"si", "m3d"} {
		sysName, err := core.CanonicalSystemName(sys)
		if err != nil {
			t.Fatal(err)
		}
		for _, wl := range embench.Workloads() {
			for _, g := range carbon.Grids() {
				k := evaluateKey(sysName, wl.Name, g.Name)
				if o, _ := ring.Owner(k); o == owner {
					return fmt.Sprintf(`{"system": %q, "workload": %q, "grid": %q}`, sys, wl.Name, g.Name), k
				}
			}
		}
	}
	t.Fatalf("no evaluate key owned by %s", owner)
	return "", ""
}

// TestClusterForwarding pins the routing contract: a miss on the
// non-owner forwards one hop to the owner instead of recomputing, the
// round trip is attributed under peer_forward, and the reply is cached
// locally so the next request is a plain HIT.
func TestClusterForwarding(t *testing.T) {
	a, b, tsA, _ := twoNodeCluster(t)
	body, key := evaluateOwnedBy(t, "node-b")

	resp, respBody := post(t, tsA, "/v1/evaluate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded evaluate: %d %s", resp.StatusCode, respBody)
	}
	if got := resp.Header.Get("X-Cache"); got != "REMOTE" {
		t.Fatalf("X-Cache = %q, want REMOTE", got)
	}
	if got := a.metrics.ClusterForwards.With("remote").Load(); got != 1 {
		t.Errorf("node-a remote forwards = %d, want 1", got)
	}
	// The owner computed it exactly once (a MISS on node-b).
	if got := b.metrics.CacheMisses.Load(); got != 1 {
		t.Errorf("node-b cache misses = %d, want 1", got)
	}
	// peer_forward shows up in node-a's flight recorder.
	evs := a.Recorder().Dump("all", 0)
	found := false
	for _, ev := range evs {
		if ev.Disposition == "REMOTE" {
			found = true
			if ev.PeerForwardNS <= 0 {
				t.Errorf("REMOTE event has peer_forward_ns %d, want > 0", ev.PeerForwardNS)
			}
		}
	}
	if !found {
		t.Error("no REMOTE event in node-a's flight recorder")
	}
	// The forwarded reply was cached locally: second request is a HIT
	// with byte-identical body, no second forward.
	resp2, respBody2 := post(t, tsA, "/v1/evaluate", body)
	if got := resp2.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("second request X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(respBody, respBody2) {
		t.Error("cached forward reply differs from the original")
	}
	if got := a.metrics.ClusterForwards.With("remote").Load(); got != 1 {
		t.Errorf("remote forwards after HIT = %d, want still 1", got)
	}
	// And the owner itself serves the key locally, never forwarding.
	if _, ok := a.cache.Get(key); !ok {
		t.Error("forwarded reply not in node-a's cache")
	}
}

// TestClusterForwardLoopGuard pins the one-hop contract: a request
// that already crossed a node is served locally, and a hop path
// proving a loop (two hops, or this node's own ID) is refused with
// 508 rather than forwarded again.
func TestClusterForwardLoopGuard(t *testing.T) {
	a, _, tsA, _ := twoNodeCluster(t)
	body, _ := evaluateOwnedBy(t, "node-b")

	send := func(hops string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, tsA.URL+"/v1/evaluate", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(forwardedHeader, hops)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// One foreign hop: node-a is the owner's fallback — it must serve
	// locally (MISS), never re-forward.
	resp := send("node-b")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-hop forward: %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got == "REMOTE" {
		t.Error("forwarded request was forwarded again")
	}
	// Two hops: refused.
	if resp := send("node-b,node-x"); resp.StatusCode != http.StatusLoopDetected {
		t.Errorf("double-forward: %d, want %d", resp.StatusCode, http.StatusLoopDetected)
	}
	// Own ID in the path: refused.
	if resp := send("node-a"); resp.StatusCode != http.StatusLoopDetected {
		t.Errorf("self-forward: %d, want %d", resp.StatusCode, http.StatusLoopDetected)
	}
	if got := a.metrics.ClusterForwards.With("refused").Load(); got != 2 {
		t.Errorf("refused forwards = %d, want 2", got)
	}
}

// singleNodeSweepNDJSON runs the spec on a fresh unclustered server
// and returns the merged NDJSON — the byte-identity reference.
func singleNodeSweepNDJSON(t *testing.T, spec string) []byte {
	t.Helper()
	_, ts := newSweepServer(t, quietConfig())
	resp, body := post(t, ts, "/v1/sweeps", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps: %d %s", resp.StatusCode, body)
	}
	var st sweepStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if got := waitSweep(t, ts, st.ID); got.Status != SweepDone {
		t.Fatalf("reference sweep: %+v", got)
	}
	_, raw := get(t, ts, "/v1/sweeps/"+st.ID+"/results")
	return raw
}

// TestClusterDistributedSweep pins the tentpole correctness contract:
// a sweep POSTed to one node of a two-node cluster shards across both,
// every point is evaluated exactly once cluster-wide, and the merged
// NDJSON is byte-identical to a single-node run.
func TestClusterDistributedSweep(t *testing.T) {
	want := singleNodeSweepNDJSON(t, clusterSweep)

	a, b, tsA, _ := twoNodeCluster(t)
	resp, body := post(t, tsA, "/v1/sweeps", clusterSweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps: %d %s", resp.StatusCode, body)
	}
	var st sweepStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Total != 8 {
		t.Fatalf("sweep total = %d, want 8", st.Total)
	}
	if got := waitSweep(t, tsA, st.ID); got.Status != SweepDone || got.Completed != 8 {
		t.Fatalf("distributed sweep: %+v", got)
	}
	_, raw := get(t, tsA, "/v1/sweeps/"+st.ID+"/results")
	if !bytes.Equal(raw, want) {
		t.Errorf("distributed NDJSON differs from single-node run:\n got: %s\nwant: %s", raw, want)
	}
	// Exactly-once cluster-wide: the two nodes' fresh evaluations sum
	// to the plan size — nothing skipped, nothing evaluated twice.
	evals := a.metrics.SweepPoints.Load() + b.metrics.SweepPoints.Load()
	if evals != 8 {
		t.Errorf("cluster-wide evaluations = %d (a=%d, b=%d), want exactly 8",
			evals, a.metrics.SweepPoints.Load(), b.metrics.SweepPoints.Load())
	}
}

// TestClusterSweepWorkerDeath pins work-stealing: a worker that claims
// a range and dies never completes it; its lease expires and the
// coordinator steals and finishes the range, with the merged output
// still byte-identical and every point evaluated exactly once.
//
// The dead worker is deterministic: a gossip-speaking peer whose work
// handler synchronously claims the first range and then goes silent —
// the claim is guaranteed to land before the coordinator starts its
// own loop because work notifications are delivered synchronously
// first.
func TestClusterSweepWorkerDeath(t *testing.T) {
	want := singleNodeSweepNDJSON(t, clusterSweep)

	// Short lease so the ghost's abandoned range expires fast. The
	// coordinator is the only real executor and its claim loop is
	// serial, so its own expired-mid-work leases can't double-execute.
	cfg := clusterConfig()
	cfg.ClusterLeaseTTL = 200 * time.Millisecond
	a, tsA := startClusterNode(t, "node-a", cfg)

	// The ghost: joins the cluster for real, accepts work, claims one
	// range, never executes it.
	mux := http.NewServeMux()
	ghostTS := httptest.NewServer(mux)
	t.Cleanup(ghostTS.Close)
	ghost, err := cluster.StartNode(cluster.NodeConfig{
		ID:             "node-ghost",
		Advertise:      ghostTS.URL,
		GossipInterval: time.Hour,
		Logger:         quietConfig().Logger,
	}, []string{tsA.URL})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ghost.Close)
	mux.HandleFunc("POST /cluster/v1/gossip", func(w http.ResponseWriter, r *http.Request) {
		var msg cluster.GossipMsg
		if err := json.NewDecoder(r.Body).Decode(&msg); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(ghost.HandleGossip(msg))
	})
	claimed := make(chan clusterClaimResp, 1)
	mux.HandleFunc("POST /cluster/v1/sweeps/work", func(w http.ResponseWriter, r *http.Request) {
		var msg clusterWorkMsg
		if err := json.NewDecoder(r.Body).Decode(&msg); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// Claim a range like a real worker would — then die on it.
		body, _ := json.Marshal(clusterClaimReq{Worker: "node-ghost"})
		resp, err := http.Post(msg.CoordinatorURL+"/cluster/v1/sweeps/"+msg.JobID+"/claim",
			"application/json", bytes.NewReader(body))
		if err == nil {
			var cr clusterClaimResp
			json.NewDecoder(resp.Body).Decode(&cr)
			resp.Body.Close()
			claimed <- cr
		}
		w.WriteHeader(http.StatusAccepted)
	})
	ghost.Gossip()
	if a.clusterNode().AliveCount() != 2 {
		t.Fatal("ghost did not join")
	}

	resp, body := post(t, tsA, "/v1/sweeps", clusterSweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps: %d %s", resp.StatusCode, body)
	}
	var st sweepStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if got := waitSweep(t, tsA, st.ID); got.Status != SweepDone || got.Completed != 8 {
		t.Fatalf("sweep with dead worker: %+v", got)
	}
	// The ghost really held a range hostage — this run exercised the
	// lease-expiry steal, it didn't just run clean.
	select {
	case cr := <-claimed:
		if cr.Status != "range" {
			t.Fatalf("ghost claim status %q, want \"range\"", cr.Status)
		}
	default:
		t.Fatal("ghost never claimed a range")
	}
	_, raw := get(t, tsA, "/v1/sweeps/"+st.ID+"/results")
	if !bytes.Equal(raw, want) {
		t.Error("NDJSON after worker death differs from single-node run")
	}
	// The coordinator evaluated everything itself (the ghost did no
	// work), and exactly once.
	if got := a.metrics.SweepPoints.Load(); got != 8 {
		t.Errorf("coordinator evaluations = %d, want exactly 8", got)
	}
}

// TestClusterMetricsSurface pins the scrape surface: the peers gauge
// reports cluster size, and flight-recorder drops are a first-class
// metric rather than a per-dump header.
func TestClusterMetricsSurface(t *testing.T) {
	_, _, tsA, _ := twoNodeCluster(t)
	_, body := get(t, tsA, "/metrics")
	text := string(body)
	if !strings.Contains(text, "ppatcd_cluster_peers 2") {
		t.Errorf("/metrics missing \"ppatcd_cluster_peers 2\":\n%s", text)
	}
	if !strings.Contains(text, "ppatcd_flight_dropped_total") {
		t.Error("/metrics missing ppatcd_flight_dropped_total")
	}
	if !strings.Contains(text, "ppatcd_cluster_forwards_total") {
		t.Error("/metrics missing ppatcd_cluster_forwards_total")
	}
}

// TestReadinessLivenessSplit pins the drain ordering: BeginShutdown
// flips /healthz to 503 draining and gossips leaving to peers before
// any listener work, while /livez stays 200.
func TestReadinessLivenessSplit(t *testing.T) {
	a, b, tsA, _ := twoNodeCluster(t)

	resp, _ := get(t, tsA, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy /healthz = %d", resp.StatusCode)
	}

	a.BeginShutdown()

	resp, body := get(t, tsA, "/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /healthz = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"draining"`) {
		t.Errorf("draining /healthz body: %s", body)
	}
	if resp, _ := get(t, tsA, "/livez"); resp.StatusCode != http.StatusOK {
		t.Errorf("draining /livez = %d, want 200", resp.StatusCode)
	}
	// BeginShutdown pushed "leaving" synchronously: the peer has
	// already dropped node-a from its alive set and ring.
	if got := b.clusterNode().AliveCount(); got != 1 {
		t.Errorf("peer alive count after drain = %d, want 1", got)
	}
}

// TestClusterEndpointsWithoutCluster pins that the control plane is
// mounted but refuses service outside cluster mode.
func TestClusterEndpointsWithoutCluster(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{
		"/cluster/v1/gossip",
		"/cluster/v1/sweeps/work",
		"/cluster/v1/sweeps/x/claim",
		"/cluster/v1/sweeps/x/complete",
	} {
		resp, _ := post(t, ts, path, `{}`)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s without cluster = %d, want 503", path, resp.StatusCode)
		}
	}
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

// TestClusterWorkAcceptContentType pins header ordering on the work
// invitation's 202: Content-Type must be set before WriteHeader writes
// the status line, because Go silently drops headers set afterwards and
// the coordinator would receive an untyped body.
func TestClusterWorkAcceptContentType(t *testing.T) {
	_, _, tsA, tsB := twoNodeCluster(t)

	spec, err := dse.ParseSpec(strings.NewReader(clusterSweep))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dse.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := json.Marshal(clusterWorkMsg{
		// The job ID is the spec hash; the coordinator has no such sweep,
		// so the spawned worker's first claim fails and it exits — the
		// test only exercises the invitation response itself.
		JobID:          plan.Hash[:12],
		CoordinatorURL: tsA.URL,
		Spec:           json.RawMessage(clusterSweep),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, tsB, "/cluster/v1/sweeps/work", string(msg))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("work invitation: %d %s, want 202", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/json" {
		t.Fatalf("202 Content-Type = %q, want application/json (headers set after WriteHeader are dropped)", got)
	}
}

// TestClusterWorkChecksSweepCap: a work invitation is held to the
// worker's own SweepMaxPoints, checked on the spec's point count before
// the plan is built, as POST /v1/sweeps is.
func TestClusterWorkChecksSweepCap(t *testing.T) {
	cfg := clusterConfig()
	cfg.SweepMaxPoints = 1
	_, ts := startClusterNode(t, "node-a", cfg)
	msg, err := json.Marshal(clusterWorkMsg{
		JobID:          "000000000000",
		CoordinatorURL: ts.URL,
		Spec:           json.RawMessage(clusterSweep),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, ts, "/cluster/v1/sweeps/work", string(msg))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "cap is 1") {
		t.Fatalf("work invitation over the cap: %d %s, want 400 with cap message", resp.StatusCode, body)
	}
}
