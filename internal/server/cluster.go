package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"ppatc/internal/cluster"
	"ppatc/internal/dse"
	"ppatc/internal/obs/flight"
)

// Cluster mode: StartCluster joins this daemon to a peer group. Three
// cooperating mechanisms hang off the membership node:
//
//   - result routing: every canonical cache key has one owner on a
//     consistent-hash ring; a miss on a non-owner forwards the request
//     one hop to the owner (loop-guarded by X-PPATC-Forwarded) instead
//     of recomputing, and caches the reply locally;
//   - distributed sweeps: the node receiving POST /v1/sweeps becomes
//     the coordinator, shards the plan into contiguous ranges under a
//     lease table, and hands ranges to peers (and itself) over HTTP;
//     expired leases are stolen, completions are first-wins, and the
//     merged NDJSON is byte-identical to a single-node run;
//   - health: gossip state feeds /healthz and the ppatcd_cluster_*
//     metrics, and BeginShutdown gossips "leaving" before drain.

// forwardedHeader carries the hop path of a forwarded request: the
// node IDs that already handled it, comma-separated. One hop is the
// maximum — a second forward means ring disagreement and is refused.
const forwardedHeader = "X-PPATC-Forwarded"

// clusterState is everything cluster mode adds to a server.
type clusterState struct {
	node *cluster.Node

	mu sync.Mutex
	// coords indexes the distributed sweeps this node coordinates.
	coords map[string]*sweepCoord
	// working marks sweep jobs this node is already executing ranges
	// for, so duplicate work notifications don't double the loops.
	working map[string]bool
}

// StartCluster joins the server to a cluster under the given identity.
// Call it after New and before serving traffic; join lists peer base
// URLs (empty for the first node). The gossip endpoints are always
// mounted and reply 503 until this is called.
func (s *Server) StartCluster(nodeID, advertise string, join []string) error {
	node, err := cluster.StartNode(cluster.NodeConfig{
		ID:             nodeID,
		Advertise:      advertise,
		GossipInterval: s.cfg.ClusterGossipInterval,
		Logger:         s.log,
	}, join)
	if err != nil {
		return err
	}
	c := &clusterState{
		node:    node,
		coords:  make(map[string]*sweepCoord),
		working: make(map[string]bool),
	}
	s.cluster.Store(c)
	s.metrics.clusterPeers = node.AliveCount
	s.log.Info("cluster mode", "node_id", nodeID, "advertise", advertise, "join", strings.Join(join, ","))
	return nil
}

// clusterNode returns the membership node, nil outside cluster mode.
func (s *Server) clusterNode() *cluster.Node {
	if c := s.cluster.Load(); c != nil {
		return c.node
	}
	return nil
}

// BeginShutdown flips /healthz to draining and gossips "leaving" to
// peers — call it before http.Server.Shutdown so load balancers and
// ring lookups stop routing here while in-flight requests drain.
func (s *Server) BeginShutdown() {
	s.draining.Store(true)
	if c := s.cluster.Load(); c != nil {
		c.node.Leave()
	}
}

// forwardSpec is what serveComputed needs to re-issue a request to the
// key owner: the endpoint path, the canonical request body, and the
// owner's address.
type forwardSpec struct {
	path     string
	body     []byte
	ownerID  string
	ownerURL string
}

// forwardSpecFor resolves the key's owner and, when it is a healthy
// remote peer and this request isn't already a forward, builds the
// forward spec. Returns nil in every serve-locally case.
func (s *Server) forwardSpecFor(r *http.Request, path, key string, canonicalBody any) *forwardSpec {
	c := s.cluster.Load()
	if c == nil || r.Header.Get(forwardedHeader) != "" {
		return nil
	}
	owner, self, ok := c.node.Owner(key)
	if !ok || self {
		return nil
	}
	body, err := json.Marshal(canonicalBody)
	if err != nil {
		return nil
	}
	return &forwardSpec{path: path, body: body, ownerID: owner.ID, ownerURL: owner.URL}
}

// refuseForwardLoop rejects a request whose hop path already proves a
// routing loop: two hops, or this node's own ID in the path. Returns
// true when the request was refused and written.
func (s *Server) refuseForwardLoop(w http.ResponseWriter, r *http.Request) bool {
	hops := r.Header.Get(forwardedHeader)
	if hops == "" {
		return false
	}
	n := s.clusterNode()
	parts := strings.Split(hops, ",")
	if len(parts) >= 2 || (n != nil && parts[0] == n.ID()) {
		s.metrics.ClusterForwards.With("refused").Add(1)
		writeError(w, http.StatusLoopDetected,
			fmt.Errorf("forward loop: request already crossed %q", hops))
		return true
	}
	return false
}

// forwardToPeer re-issues the request to the key owner and returns the
// owner's response body. The hop header names this node so the owner
// serves locally (and a loop is detectable).
func (s *Server) forwardToPeer(ctx context.Context, fwd *forwardSpec) ([]byte, error) {
	n := s.clusterNode()
	if n == nil {
		return nil, errors.New("cluster not started")
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, fwd.ownerURL+fwd.path, bytes.NewReader(fwd.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardedHeader, n.ID())
	resp, err := n.Client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer %s: %s", fwd.ownerID, resp.Status)
	}
	return body, nil
}

// computeForward is the miss path of a routed key: forward to the
// owner, cache its bytes locally (the owner persists; this node only
// caches), and attribute the round trip as peer_forward. A failed
// forward degrades to local compute — availability over placement.
func (s *Server) computeForward(ctx context.Context, key string, fwd *forwardSpec) ([]byte, flight.Breakdown, bool) {
	var bd flight.Breakdown
	start := time.Now()
	body, err := s.forwardToPeer(ctx, fwd)
	bd.PeerForwardNS = time.Since(start).Nanoseconds()
	if err != nil {
		s.metrics.ClusterForwards.With("fallback").Add(1)
		s.log.Warn("peer forward failed; computing locally",
			"key", key, "owner", fwd.ownerID, "error", err)
		return nil, bd, false
	}
	s.metrics.ClusterForwards.With("remote").Add(1)
	bd.Remote = true
	return s.cache.Put(key, body), bd, true
}

// --- distributed sweeps: wire types ---

// clusterWorkMsg notifies a peer that a distributed sweep wants
// workers: POST /cluster/v1/sweeps/work.
type clusterWorkMsg struct {
	JobID          string          `json:"job_id"`
	CoordinatorURL string          `json:"coordinator_url"`
	Spec           json.RawMessage `json:"spec"`
}

// clusterClaimReq asks the coordinator for a range:
// POST /cluster/v1/sweeps/{id}/claim.
type clusterClaimReq struct {
	Worker string `json:"worker"`
}

// clusterClaimResp is the coordinator's answer: a range to run
// ("range", with any already-resumed indices to skip), "wait" (all
// ranges validly leased right now), or "done".
type clusterClaimResp struct {
	Status string `json:"status"`
	Lo     int    `json:"lo,omitempty"`
	Hi     int    `json:"hi,omitempty"`
	Skip   []int  `json:"skip,omitempty"`
}

// clusterCompleteReq delivers a finished range's fresh results:
// POST /cluster/v1/sweeps/{id}/complete.
type clusterCompleteReq struct {
	Worker  string       `json:"worker"`
	Lo      int          `json:"lo"`
	Hi      int          `json:"hi"`
	Results []dse.Result `json:"results"`
}

type clusterCompleteResp struct {
	// Accepted is false when another worker completed the range first
	// (a stolen lease's original holder resurfacing); the results are
	// discarded and the worker moves on.
	Accepted bool `json:"accepted"`
}

// --- coordinator ---

// sweepCoord coordinates one distributed sweep: the lease table
// sharding the plan, and a reorder buffer merging accepted ranges back
// into plan order so the job's committed results are byte-identical to
// a single-node run.
type sweepCoord struct {
	s        *Server
	j        *sweepJob
	plan     *dse.Plan
	leases   *cluster.LeaseTable
	leaseTTL time.Duration
	// resumed marks indices adopted from the store before the run;
	// workers skip them and the merge fills them from results.
	resumed []bool
	// onFresh persists every freshly evaluated point, called at merge
	// time in completion order.
	onFresh func(dse.Result)

	mu      sync.Mutex
	results []dse.Result
	present []bool
	next    int // first index not yet committed to the job
	failed  error
	done    chan struct{} // closed when every index has been committed
}

// newSweepCoord seeds the merge buffer with resumed results and
// commits any already-complete prefix, mirroring the single-node
// engine's pre-release of resumed points.
func newSweepCoord(s *Server, j *sweepJob, completed map[int]dse.Result, onFresh func(dse.Result)) *sweepCoord {
	total := len(j.plan.Points)
	rangeSize := s.cfg.ClusterRangeSize
	if rangeSize <= 0 {
		// Auto: ~4 ranges per member so stealing has granularity without
		// drowning the coordinator in completion round trips.
		members := 1
		if n := s.clusterNode(); n != nil {
			members = n.AliveCount()
		}
		rangeSize = total / (members * 4)
		if rangeSize < 1 {
			rangeSize = 1
		}
	}
	co := &sweepCoord{
		s:        s,
		j:        j,
		plan:     j.plan,
		leases:   cluster.NewLeaseTable(total, rangeSize),
		leaseTTL: s.cfg.ClusterLeaseTTL,
		resumed:  make([]bool, total),
		onFresh:  onFresh,
		results:  make([]dse.Result, total),
		present:  make([]bool, total),
		done:     make(chan struct{}),
	}
	for i, r := range completed {
		if i >= 0 && i < total {
			co.results[i] = r
			co.present[i] = true
			co.resumed[i] = true
		}
	}
	co.mu.Lock()
	co.releaseLocked()
	co.mu.Unlock()
	return co
}

// claim hands a worker the next range, or reports wait/done.
func (co *sweepCoord) claim(worker string) clusterClaimResp {
	if co.leases.Done() {
		return clusterClaimResp{Status: "done"}
	}
	lo, hi, ok := co.leases.Claim(worker, co.leaseTTL)
	if !ok {
		if co.leases.Done() {
			return clusterClaimResp{Status: "done"}
		}
		return clusterClaimResp{Status: "wait"}
	}
	resp := clusterClaimResp{Status: "range", Lo: lo, Hi: hi}
	for i := lo; i < hi; i++ {
		if co.resumed[i] {
			resp.Skip = append(resp.Skip, i)
		}
	}
	return resp
}

// acceptRange merges one completed range. First completion of a range
// wins; duplicates (a stolen lease's original holder finishing late)
// are reported unaccepted and discarded, preserving exactly-once
// commitment per point. results must hold exactly the range's
// non-resumed points in ascending index order.
func (co *sweepCoord) acceptRange(lo, hi int, results []dse.Result) (bool, error) {
	want := 0
	for i := lo; i < hi; i++ {
		if !co.resumed[i] {
			want++
		}
	}
	if len(results) != want {
		return false, fmt.Errorf("range [%d, %d): got %d results, want %d", lo, hi, len(results), want)
	}
	idx := lo
	for _, r := range results {
		for idx < hi && co.resumed[idx] {
			idx++
		}
		if idx >= hi || r.Index != idx {
			return false, fmt.Errorf("range [%d, %d): unexpected result index %d", lo, hi, r.Index)
		}
		idx++
	}
	accepted, err := co.leases.Complete(lo, hi)
	if err != nil || !accepted {
		return false, err
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.failed != nil {
		return false, co.failed
	}
	for _, r := range results {
		// Persist before the point becomes visible anywhere, matching
		// the single-node OnComplete-before-OnResult ordering.
		co.onFresh(r)
		co.results[r.Index] = r
		co.present[r.Index] = true
	}
	co.releaseLocked()
	return true, nil
}

// releaseLocked commits the contiguous present prefix to the job in
// plan order — the same reorder-buffer discipline as the engine, so
// /v1/sweeps/{id}/results streams a stable, byte-identical prefix.
func (co *sweepCoord) releaseLocked() {
	for co.next < len(co.results) && co.present[co.next] {
		co.j.commit(co.results[co.next])
		co.next++
	}
	if co.next == len(co.results) {
		select {
		case <-co.done:
		default:
			close(co.done)
		}
	}
}

func (co *sweepCoord) failLocked(err error) {
	if co.failed == nil {
		co.failed = err
		select {
		case <-co.done:
		default:
			close(co.done)
		}
	}
}

// err returns the coordinator's terminal error, if any.
func (co *sweepCoord) err() error {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.failed
}

// finalResults returns the merged results after done closes cleanly.
func (co *sweepCoord) finalResults() []dse.Result {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.results
}

// runDistributedSweep is the cluster branch of runSweep: shard the
// plan, invite every alive peer, and work the lease table locally too
// (the coordinator is also a worker, and the local loop steals expired
// leases from dead peers — liveness never depends on any peer).
func (s *Server) runDistributedSweep(ctx context.Context, j *sweepJob, completed map[int]dse.Result, onFresh func(dse.Result), start time.Time) {
	c := s.cluster.Load()
	co := newSweepCoord(s, j, completed, onFresh)
	c.mu.Lock()
	c.coords[j.id] = co
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.coords, j.id)
		c.mu.Unlock()
	}()

	specJSON, err := json.Marshal(j.plan.Spec)
	if err != nil {
		s.finishSweep(j, SweepFailed, err, start)
		return
	}
	peers := c.node.AlivePeers()
	msg := clusterWorkMsg{JobID: j.id, CoordinatorURL: c.node.Advertise(), Spec: specJSON}
	for _, p := range peers {
		if err := s.postClusterJSON(ctx, p.URL+"/cluster/v1/sweeps/work", msg, nil); err != nil {
			// A peer that can't take work is only lost capacity: its
			// ranges fall to the local loop (or other peers) by stealing.
			s.log.Warn("sweep work notification failed", "id", j.id, "peer", p.ID, "error", err)
		}
	}
	s.log.Info("distributed sweep", "id", j.id, "points", len(j.plan.Points),
		"ranges", co.leases.Remaining(), "peers", len(peers))

	s.workLeases(ctx, co, c.node.ID(), func(lo, hi int, skip []int) ([]dse.Result, error) {
		return s.executeRange(ctx, j.plan, lo, hi, skip, co)
	}, func(lo, hi int, rs []dse.Result) (bool, error) {
		return co.acceptRange(lo, hi, rs)
	})

	select {
	case <-co.done:
	case <-ctx.Done():
	}
	switch {
	case ctx.Err() != nil:
		// Explicit cancel and daemon shutdown both leave the job
		// resumable rather than failed, like the single-node path.
		s.finishSweep(j, SweepCancelled, nil, start)
	case co.err() != nil:
		s.finishSweep(j, SweepFailed, co.err(), start)
	default:
		results := co.finalResults()
		s.persistSweep(j.id, results, j.requestID)
		s.finishSweep(j, SweepDone, nil, start)
	}
}

// workLeases is the claim-execute-complete loop shared by the
// coordinator's local worker and remote workers: claim a range, run
// it, deliver it, repeat until the table is done (waiting out ranges
// validly leased elsewhere — if their holder dies, the lease expires
// and the loop steals it).
func (s *Server) workLeases(ctx context.Context, co *sweepCoord, worker string,
	execute func(lo, hi int, skip []int) ([]dse.Result, error),
	deliver func(lo, hi int, rs []dse.Result) (bool, error)) {
	poll := co.leaseTTL / 10
	if poll < 20*time.Millisecond {
		poll = 20 * time.Millisecond
	}
	if poll > time.Second {
		poll = time.Second
	}
	for ctx.Err() == nil {
		resp := co.claim(worker)
		switch resp.Status {
		case "done":
			return
		case "wait":
			select {
			case <-time.After(poll):
			case <-ctx.Done():
				return
			}
		case "range":
			rs, err := execute(resp.Lo, resp.Hi, resp.Skip)
			if err != nil {
				if ctx.Err() != nil {
					return
				}
				co.mu.Lock()
				co.failLocked(err)
				co.mu.Unlock()
				return
			}
			accepted, err := deliver(resp.Lo, resp.Hi, rs)
			if err != nil {
				return
			}
			status := "completed"
			if !accepted {
				status = "duplicate"
			}
			s.metrics.ClusterRanges.With(status).Add(1)
		}
	}
}

// executeRange evaluates [lo, hi) of the plan, skipping resumed
// indices, and returns the fresh results in ascending index order.
func (s *Server) executeRange(ctx context.Context, plan *dse.Plan, lo, hi int, skip []int, co *sweepCoord) ([]dse.Result, error) {
	skipSet := make(map[int]bool, len(skip))
	completed := make(map[int]dse.Result, len(skip))
	for _, i := range skip {
		skipSet[i] = true
		if co != nil {
			co.mu.Lock()
			completed[i] = co.results[i]
			co.mu.Unlock()
		} else {
			// Remote workers don't hold the resumed values; a placeholder
			// keeps the engine from evaluating the point, and the filter
			// below drops it before delivery.
			completed[i] = dse.Result{Index: i}
		}
	}
	rs, err := dse.RunPlanRange(ctx, plan, lo, hi, dse.Options{
		Workers:     s.cfg.Workers,
		Completed:   completed,
		EvalCounter: s.metrics.SweepPoints,
	})
	if err != nil {
		return nil, err
	}
	fresh := rs[:0]
	for _, r := range rs {
		if !skipSet[r.Index] {
			fresh = append(fresh, r)
		}
	}
	return fresh, nil
}

// --- remote worker ---

// runClusterWorker executes ranges of a remote coordinator's sweep
// until the coordinator reports done (or this server shuts down).
func (s *Server) runClusterWorker(jobID, coordURL string, plan *dse.Plan) {
	c := s.cluster.Load()
	if c == nil {
		return
	}
	defer func() {
		c.mu.Lock()
		delete(c.working, jobID)
		c.mu.Unlock()
	}()
	ctx := s.base
	worker := c.node.ID()
	leaseTTL := s.cfg.ClusterLeaseTTL
	poll := leaseTTL / 10
	if poll < 20*time.Millisecond {
		poll = 20 * time.Millisecond
	}
	if poll > time.Second {
		poll = time.Second
	}
	claimURL := coordURL + "/cluster/v1/sweeps/" + jobID + "/claim"
	completeURL := coordURL + "/cluster/v1/sweeps/" + jobID + "/complete"
	for ctx.Err() == nil {
		var resp clusterClaimResp
		if err := s.postClusterJSON(ctx, claimURL, clusterClaimReq{Worker: worker}, &resp); err != nil {
			// Coordinator unreachable or job gone: nothing left to do here;
			// the coordinator's own loop covers the remaining ranges.
			s.log.Warn("cluster worker claim failed", "job", jobID, "error", err)
			return
		}
		switch resp.Status {
		case "done":
			return
		case "wait":
			select {
			case <-time.After(poll):
			case <-ctx.Done():
				return
			}
		case "range":
			rs, err := s.executeRange(ctx, plan, resp.Lo, resp.Hi, resp.Skip, nil)
			if err != nil {
				s.log.Warn("cluster worker range failed", "job", jobID, "lo", resp.Lo, "hi", resp.Hi, "error", err)
				return
			}
			var cresp clusterCompleteResp
			err = s.postClusterJSON(ctx, completeURL,
				clusterCompleteReq{Worker: worker, Lo: resp.Lo, Hi: resp.Hi, Results: rs}, &cresp)
			if err != nil {
				s.log.Warn("cluster worker complete failed", "job", jobID, "error", err)
				return
			}
			status := "completed"
			if !cresp.Accepted {
				status = "duplicate"
			}
			s.metrics.ClusterRanges.With(status).Add(1)
		default:
			return
		}
	}
}

// postClusterJSON is the cluster control-plane HTTP helper: POST v as
// JSON, decode the reply into out (when non-nil), error on non-2xx.
func (s *Server) postClusterJSON(ctx context.Context, url string, v, out any) error {
	n := s.clusterNode()
	if n == nil {
		return errors.New("cluster not started")
	}
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.Client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	if out == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		return nil
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(out)
}

// --- HTTP handlers ---

// requireCluster fetches the cluster state or writes 503.
func (s *Server) requireCluster(w http.ResponseWriter) *clusterState {
	c := s.cluster.Load()
	if c == nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("cluster mode not enabled"))
	}
	return c
}

// handleClusterGossip is the membership exchange endpoint.
func (s *Server) handleClusterGossip(w http.ResponseWriter, r *http.Request) {
	c := s.requireCluster(w)
	if c == nil {
		return
	}
	var msg cluster.GossipMsg
	if err := decodeBody(r, &msg); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, c.node.HandleGossip(msg))
}

// handleClusterWork accepts a work invitation: verify the shipped spec
// expands to the advertised job (the job ID is the spec hash — a
// mismatched invitation is refused, not executed), then work the
// coordinator's lease table in the background.
func (s *Server) handleClusterWork(w http.ResponseWriter, r *http.Request) {
	c := s.requireCluster(w)
	if c == nil {
		return
	}
	var msg clusterWorkMsg
	if err := decodeBody(r, &msg); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spec, err := dse.ParseSpec(bytes.NewReader(msg.Spec))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	plan, err := s.expandSweep(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(plan.Hash) < 12 || plan.Hash[:12] != msg.JobID {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("spec hash %.12s does not match job %q", plan.Hash, msg.JobID))
		return
	}
	if msg.CoordinatorURL == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing coordinator_url"))
		return
	}
	c.mu.Lock()
	already := c.working[msg.JobID]
	if !already {
		c.working[msg.JobID] = true
	}
	c.mu.Unlock()
	if !already {
		go s.runClusterWorker(msg.JobID, msg.CoordinatorURL, plan)
	}
	// Content-Type must precede the status line: headers set after
	// WriteHeader are silently dropped, and the 202 body would reach the
	// coordinator untyped.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, map[string]string{"status": "accepted"})
}

// coordByPath resolves the coordinator for a claim/complete call.
func (s *Server) coordByPath(w http.ResponseWriter, r *http.Request) *sweepCoord {
	c := s.requireCluster(w)
	if c == nil {
		return nil
	}
	c.mu.Lock()
	co := c.coords[r.PathValue("id")]
	c.mu.Unlock()
	if co == nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("not coordinating sweep %q", r.PathValue("id")))
	}
	return co
}

func (s *Server) handleClusterClaim(w http.ResponseWriter, r *http.Request) {
	co := s.coordByPath(w, r)
	if co == nil {
		return
	}
	var req clusterClaimReq
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, co.claim(req.Worker))
}

func (s *Server) handleClusterComplete(w http.ResponseWriter, r *http.Request) {
	co := s.coordByPath(w, r)
	if co == nil {
		return
	}
	var req clusterCompleteReq
	if err := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 64<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	accepted, err := co.acceptRange(req.Lo, req.Hi, req.Results)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	status := "completed"
	if !accepted {
		status = "stolen"
	}
	s.metrics.ClusterRanges.With(status).Add(1)
	writeJSON(w, clusterCompleteResp{Accepted: accepted})
}

// clusterHealth summarizes membership for /healthz.
func (s *Server) clusterHealth() map[string]any {
	c := s.cluster.Load()
	if c == nil {
		return nil
	}
	byState := make(map[string]int, 2)
	for _, m := range c.node.Members() {
		byState[m.State]++
	}
	// encoding/json renders map keys sorted, so the body is stable.
	return map[string]any{
		"node_id": c.node.ID(),
		"peers":   c.node.AliveCount(),
		"members": byState,
	}
}
