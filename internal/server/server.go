// Package server exposes the PPAtC engine as a long-lived JSON service:
// the evaluation pipeline behind cmd/ppatc, wrapped in a bounded worker
// pool, an LRU result cache with single-flight coalescing, and a
// Prometheus-style metrics surface. The pipeline is deterministic, so
// identical requests are exact cache hits and return byte-identical
// responses.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ppatc/internal/carbon"
	"ppatc/internal/core"
	"ppatc/internal/embench"
	"ppatc/internal/obs"
	"ppatc/internal/obs/flight"
	"ppatc/internal/store"
	"ppatc/internal/tcdp"
	"ppatc/internal/units"
)

// Config sizes the daemon. Zero values take the documented defaults.
type Config struct {
	// Workers is the evaluation concurrency (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds waiting requests per admission class before
	// 503s (default 64). Interactive and bulk work queue separately, so
	// a cold batch filling the bulk queue cannot starve (or reject)
	// single evaluations.
	QueueDepth int
	// CacheEntries bounds the LRU result cache (default 512).
	CacheEntries int
	// CacheShards stripes the result cache across this many mutex-guarded
	// shards, rounded up to a power of two (default 16), so hot-path cache
	// lookups from concurrent requests don't serialize on one lock.
	CacheShards int
	// RequestTimeout caps one evaluation (default 2 minutes).
	RequestTimeout time.Duration
	// Logger receives structured request logs (default slog.Default()).
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ for CPU,
	// heap and goroutine profiling of a live daemon.
	EnablePprof bool

	// SweepQueue bounds sweep jobs waiting for a runner (default 8).
	SweepQueue int
	// SweepRunners is the number of sweeps executing concurrently
	// (default 1; each sweep parallelizes internally across Workers).
	SweepRunners int
	// SweepMaxPoints rejects sweep specs expanding beyond this many
	// points (default 100000).
	SweepMaxPoints int

	// StoreDir, when set, opens a persistent segment store under this
	// directory: evaluate/suite/tcdp responses, sweep point sets and
	// per-point results write through and survive restarts, and a
	// re-submitted sweep resumes from its stored points.
	StoreDir string
	// StoreMaxSegmentBytes caps one segment file of the store
	// (0 = 8 MiB).
	StoreMaxSegmentBytes int64
	// Store injects a caller-built ResultStore (tests, embedding); it
	// takes precedence over StoreDir and is closed with the server.
	Store store.ResultStore

	// FlightRecentSlots sizes the flight recorder's recent-events ring
	// (rounded up to a power of two; default 1024).
	FlightRecentSlots int
	// SlowThreshold marks requests at or above this latency as slow:
	// they are retained in the slow ring and logged at Warn (default
	// 100ms; negative disables).
	SlowThreshold time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 512
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Minute
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.SweepQueue <= 0 {
		c.SweepQueue = 8
	}
	if c.SweepRunners <= 0 {
		c.SweepRunners = 1
	}
	if c.SweepMaxPoints <= 0 {
		c.SweepMaxPoints = 100000
	}
	if c.FlightRecentSlots <= 0 {
		c.FlightRecentSlots = 1024
	}
	if c.SlowThreshold == 0 {
		c.SlowThreshold = 100 * time.Millisecond
	}
	if c.SlowThreshold < 0 {
		c.SlowThreshold = 0
	}
	return c
}

// flightSlowSlots sizes the flight recorder's ring retaining slow
// requests.
const flightSlowSlots = 256

// Server is the PPAtC evaluation service.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	pool     *Pool
	cache    *LRU
	flight   *flightGroup
	sweeps   *sweepManager
	store    store.ResultStore
	persist  persistStatus
	metrics  *Metrics
	recorder *flight.Recorder
	log      *slog.Logger
	// memo is the process-lifetime stage memo every cold computation
	// evaluates through. Handlers validate requests down to bundled
	// designs, workloads and named grids, so it holds at most 22 entries
	// and needs no eviction.
	memo *core.Memo
	//ppatcvet:ignore ctxflow server lifetime root: Close cancels it to stop detached computations and sweep runners
	base    context.Context
	cancel  context.CancelFunc
	started time.Time

	// draining flips on BeginShutdown so /healthz reports not-ready
	// before the listener starts refusing connections.
	draining atomic.Bool

	// gridsBody and workloadsBody are the static discovery responses,
	// encoded once at startup and written verbatim per request.
	gridsBody     []byte
	workloadsBody []byte
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		pool:    NewPool(cfg.Workers, cfg.QueueDepth),
		cache:   NewShardedLRU(cfg.CacheEntries, cfg.CacheShards),
		flight:  newFlightGroup(),
		metrics: NewMetrics(),
		log:     cfg.Logger,
		memo:    core.NewMemo(),
		started: time.Now(),
	}
	s.metrics.memo = s.memo
	s.recorder = flight.NewRecorder(cfg.FlightRecentSlots, flightSlowSlots, cfg.SlowThreshold)
	s.encodeStaticBodies()
	s.base, s.cancel = context.WithCancel(context.Background())
	s.metrics.queueDepth = s.pool.QueueDepth
	s.metrics.queueDepthInteractive = func() int64 { return s.pool.QueueDepthClass(ClassInteractive) }
	s.metrics.queueDepthBulk = func() int64 { return s.pool.QueueDepthClass(ClassBulk) }
	s.metrics.cacheLen = s.cache.Len
	s.metrics.flightDropped = s.recorder.Dropped
	s.metrics.streamSubs = s.recorder.Hub().Subscribers

	s.openStore(cfg)
	s.sweeps = newSweepManager(cfg.SweepQueue)
	s.metrics.sweepQueue = func() int { return len(s.sweeps.queue) }
	for i := 0; i < cfg.SweepRunners; i++ {
		go s.runSweeps()
	}

	s.mux.HandleFunc("POST /v1/evaluate", s.instrument("evaluate", s.handleEvaluate))
	s.mux.HandleFunc("POST /v1/batch", s.instrument("batch", s.handleBatch))
	s.mux.HandleFunc("POST /v1/suite", s.instrument("suite", s.handleSuite))
	s.mux.HandleFunc("POST /v1/tcdp", s.instrument("tcdp", s.handleTCDP))
	s.mux.HandleFunc("POST /v1/sweeps", s.instrument("sweep_create", s.handleSweepCreate))
	s.mux.HandleFunc("GET /v1/sweeps", s.instrument("sweep_list", s.handleSweepList))
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.instrument("sweep_status", s.handleSweepStatus))
	s.mux.HandleFunc("GET /v1/sweeps/{id}/results", s.instrument("sweep_results", s.handleSweepResults))
	s.mux.HandleFunc("GET /v1/sweeps/{id}/frontier", s.instrument("sweep_frontier", s.handleSweepFrontier))
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.instrument("sweep_cancel", s.handleSweepCancel))
	s.mux.HandleFunc("GET /v1/results", s.instrument("result_list", s.handleResultList))
	s.mux.HandleFunc("GET /v1/results/{key}", s.instrument("result_get", s.handleResultGet))
	s.mux.HandleFunc("GET /v1/grids", s.instrument("grids", s.handleGrids))
	s.mux.HandleFunc("GET /v1/workloads", s.instrument("workloads", s.handleWorkloads))
	// The stream and flight-dump endpoints are deliberately outside
	// instrument(): a stream lives as long as its client, which would
	// read as one enormous "slow request" in its own recorder.
	s.mux.HandleFunc("GET /v1/metrics/stream", s.handleMetricsStream)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /livez", s.handleLive)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/flight", s.handleFlight)
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's counters (read-mostly; used by tests and
// the /metrics endpoint).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Close drains the worker pool, cancels any computation still keyed to
// the server's base context, and closes the result store. Call after
// the HTTP listener has shut down.
func (s *Server) Close() {
	s.cancel()
	s.pool.Close()
	if s.store != nil {
		if err := s.store.Close(); err != nil {
			s.log.Error("result store close", "error", err)
		}
	}
}

// statusWriter captures the status code for logging and metrics, and
// carries the request's latency attribution: embedding the Attribution
// in the writer the request already allocates keeps the telemetry from
// costing a second per-request allocation.
type statusWriter struct {
	http.ResponseWriter
	status int
	att    flight.Attribution
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// attributionOf recovers the request's Attribution from the response
// writer instrument() wrapped. Handlers invoked outside instrument()
// (tests calling them directly) get a throwaway so the timing calls
// stay unconditional.
//
//ppatc:hotpath
func attributionOf(w http.ResponseWriter) *flight.Attribution {
	if sw, ok := w.(*statusWriter); ok {
		return &sw.att
	}
	return &flight.Attribution{}
}

// instrument wraps a handler with the request's whole observability
// story: it assigns (or adopts, via X-Request-ID) a trace ID, echoes it
// on the response, and emits one log record carrying the endpoint,
// status, latency, cache disposition and trace ID together — one line
// tells the whole request story.
//
// The request ID lives on the response header (set before the handler
// runs) rather than in a context value: handlers that need it read it
// back from there, which spares the hot path a context allocation and a
// request clone per request.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := r.Header.Get("X-Request-ID")
		if rid == "" {
			rid = obs.NewID()
		}
		w.Header().Set("X-Request-ID", rid)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		sw.att.Endpoint = endpoint
		sw.att.RequestID = rid
		// Pool depth at admission: the head-of-line pressure this request
		// walked into, stamped before any of its own work queued.
		sw.att.PoolDepth = s.pool.QueueDepth()
		h(sw, r)
		d := time.Since(start)
		s.metrics.Observe(endpoint, d)
		s.metrics.ObserveDisposition(endpoint, sw.att.DispositionOrNone(), d, rid)
		ev := sw.att.Finish(start, d, sw.status)
		s.recorder.Record(ev)
		if s.recorder.IsSlow(d) {
			s.log.LogAttrs(r.Context(), slog.LevelWarn, "slow request",
				slog.String("endpoint", endpoint),
				slog.String("request_id", rid),
				slog.Float64("duration_ms", float64(d.Microseconds())/1e3),
				slog.String("cache", ev.Disposition),
				slog.Int("batch_size", ev.BatchSize),
				slog.Int64("pool_depth", ev.PoolDepth),
				slog.Float64("queue_wait_ms", float64(ev.QueueWaitNS)/1e6),
				slog.Float64("compute_ms", float64(ev.ComputeNS)/1e6),
				slog.Float64("encode_ms", float64(ev.EncodeNS)/1e6),
				slog.Float64("store_write_ms", float64(ev.StoreWriteNS)/1e6),
			)
		}
		if s.log.Enabled(r.Context(), slog.LevelInfo) {
			s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("endpoint", endpoint),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Float64("duration_ms", float64(d.Microseconds())/1e3),
				slog.String("cache", sw.Header().Get("X-Cache")),
				slog.String("request_id", rid),
			)
		}
	}
}

// httpError is the JSON error envelope.
type httpError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(httpError{Error: err.Error()})
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// workFn is one evaluation's encoder: it computes under ctx through memo
// and writes the JSON body into buf, which
// the caller owns (it comes from a reused buffer pool — implementations
// must not retain buf or its bytes). encodeNS reports the time spent
// serializing the result (as opposed to computing it), so attribution
// can split the two.
type workFn func(ctx context.Context, memo *core.Memo, buf *bytes.Buffer) (encodeNS int64, err error)

// encodePool recycles the encode buffers that workFns write into; the
// cache copies what it stores, so a buffer is free for reuse the moment
// its computation returns.
var encodePool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getEncodeBuf() *bytes.Buffer {
	return encodePool.Get().(*bytes.Buffer)
}

func putEncodeBuf(buf *bytes.Buffer) {
	// Don't let one multi-megabyte suite response pin its buffer forever.
	if buf.Cap() > 1<<20 {
		return
	}
	buf.Reset()
	encodePool.Put(buf)
}

// compute serves key from the cache, or runs work on the worker pool
// (coalescing concurrent identical requests) and caches the encoded
// result. The returned bytes are exactly what was first computed, so
// repeated requests are byte-identical; they are shared with the cache
// and must not be mutated. disposition reports how the request was
// served: "HIT", "MISS" (this request led the computation),
// "COALESCED" (piggybacked on an identical in-flight computation),
// "STORE" (served from the persistent result store after eviction or a
// restart, without recomputation).
//
//ppatc:hotpath
func (s *Server) compute(ctx context.Context, key string, work workFn, att *flight.Attribution) (body []byte, disposition string, err error) {
	lookupStart := time.Now()
	if b, ok := s.cache.Get(key); ok {
		s.metrics.CacheHits.Add(1)
		att.CacheLookupNS += time.Since(lookupStart).Nanoseconds()
		return b, "HIT", nil
	}
	s.metrics.CacheMisses.Add(1)
	// The persistent store is the second cache tier; its lookup time is
	// cache_lookup like the LRU's.
	if b, ok := s.storeLookup(key); ok {
		att.CacheLookupNS += time.Since(lookupStart).Nanoseconds()
		return b, "STORE", nil
	}
	att.CacheLookupNS += time.Since(lookupStart).Nanoseconds()
	// rid and the admission class are captured before the detached
	// goroutine: the leader's response header must not be touched after
	// the handler returns, and the class decides which pool queue the
	// computation enters.
	rid := att.RequestID
	class := ClassInteractive
	if att.Class == "bulk" {
		class = ClassBulk
	}
	b, bd, shared, err := s.flight.Do(ctx, key, func() ([]byte, flight.Breakdown, error) {
		// The computation runs under the server's lifetime, not any
		// requester's context, so a canceled requester cannot poison
		// coalesced waiters; the pool enforces queue bounds.
		jctx, cancel := context.WithTimeout(s.base, s.cfg.RequestTimeout)
		defer cancel()
		buf := getEncodeBuf()
		defer putEncodeBuf(buf)
		bd, err := s.runWork(jctx, class, work, s.memo, buf)
		if err != nil {
			return nil, bd, err
		}
		// Put copies buf's bytes and returns the cache-owned copy; the
		// buffer itself goes straight back to the pool. The stored copy
		// also writes through to the persistent store, so the result
		// survives both eviction and restart.
		storeStart := time.Now()
		stored := s.cache.Put(key, buf.Bytes())
		s.persistResultFor(key, stored, rid)
		bd.StoreWriteNS = time.Since(storeStart).Nanoseconds()
		return stored, bd, nil
	})
	att.Add(bd)
	if shared {
		s.metrics.Coalesced.Add(1)
		return b, "COALESCED", err
	}
	return b, "MISS", err
}

// writeComputeError maps evaluation errors onto the HTTP status space
// shared by every computing endpoint.
func (s *Server) writeComputeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		s.metrics.Rejections.Add(1)
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled), errors.Is(err, ErrPoolClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// serveComputed runs compute and writes the JSON body with cache and
// backpressure semantics shared by every evaluation endpoint. With
// ?trace=1 the request bypasses the cache, computes fresh under a trace
// rooted at its request ID, and returns the span tree inline alongside
// the result.
func (s *Server) serveComputed(w http.ResponseWriter, r *http.Request, key string, work workFn) {
	// Query() allocates its map; the common request has no query string
	// at all, so don't parse one unless it's there.
	if r.URL.RawQuery != "" {
		if q := r.URL.Query().Get("trace"); q == "1" || q == "true" {
			s.serveTraced(w, r, work)
			return
		}
	}
	att := attributionOf(w)
	// Single evaluations are interactive by endpoint: the client is
	// waiting on exactly one request-sized result.
	att.Class = ClassInteractive.String()
	body, disposition, err := s.compute(r.Context(), key, work, att)
	att.Disposition = disposition
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", disposition)
	_, _ = w.Write(body)
}

// tracedResponse is the ?trace=1 envelope: the normal result plus the
// span tree of the computation that produced it.
type tracedResponse struct {
	RequestID string          `json:"request_id"`
	Result    json.RawMessage `json:"result"`
	Trace     tracedTrace     `json:"trace"`
}

type tracedTrace struct {
	ID    string         `json:"id"`
	Spans []obs.SpanNode `json:"spans"`
}

// serveTraced computes fresh on the worker pool under a trace whose ID
// is the request ID, read back from the response header instrument set.
// Timings are the point, so it bypasses the response cache, coalescing
// and the daemon's memo: the request evaluates through a memo of its
// own, which runs every stage the request needs, in the same stage DAG
// (leaf fan-out included) a served miss runs.
func (s *Server) serveTraced(w http.ResponseWriter, r *http.Request, work workFn) {
	rid := w.Header().Get("X-Request-ID")
	att := attributionOf(w)
	att.Disposition = "BYPASS"
	jctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	tr := obs.NewTrace(rid)
	buf := getEncodeBuf()
	defer putEncodeBuf(buf)
	bd, err := s.runWork(obs.WithTrace(jctx, tr), ClassInteractive, work, core.NewMemo(), buf)
	att.Add(bd)
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	w.Header().Set("X-Cache", "BYPASS")
	writeJSON(w, tracedResponse{
		RequestID: rid,
		Result:    buf.Bytes(),
		Trace:     tracedTrace{ID: tr.ID, Spans: tr.Tree()},
	})
}

// runWork is the one way a computation reaches the worker pool: it
// admits work on class, runs it into buf through memo, and splits the
// wall time it took into queue_wait (the pool-measured wait, also
// observed on the per-class histogram), compute, and the workFn's
// self-reported encode. A rejected or
// abandoned job returns a zero breakdown.
func (s *Server) runWork(ctx context.Context, class Class, work workFn, memo *core.Memo, buf *bytes.Buffer) (flight.Breakdown, error) {
	var werr error
	var encodeNS int64
	start := time.Now()
	wait, err := s.pool.Do(ctx, class, func() { encodeNS, werr = work(ctx, memo, buf) })
	if err != nil {
		return flight.Breakdown{}, err
	}
	s.metrics.ObserveQueueWait(class.String(), wait)
	bd := flight.Breakdown{QueueWaitNS: wait.Nanoseconds(), EncodeNS: encodeNS}
	bd.ComputeNS = max(time.Since(start).Nanoseconds()-bd.QueueWaitNS-encodeNS, 0)
	return bd, werr
}

// evaluateRequest asks for one full PPAtC evaluation.
type evaluateRequest struct {
	// System is "all-Si", "M3D IGZO/CNFET/Si", or the shorthands si/m3d.
	System string `json:"system"`
	// Workload is a bundled Embench-style kernel name.
	Workload string `json:"workload"`
	// Grid names the energy grid (default "US").
	Grid string `json:"grid"`
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req evaluateRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Grid == "" {
		req.Grid = "US"
	}
	// Resolve names only — building a core.System walks the whole design
	// stack, which would be wasted work on a cache hit. The system is
	// constructed inside the workFn, where a miss pays for it once.
	sysName, err := core.CanonicalSystemName(req.System)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	wl, err := embench.ByName(req.Workload)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	grid, err := carbon.GridByName(req.Grid)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.serveComputed(w, r, evaluateKey(sysName, wl.Name, grid.Name), s.evaluateWork(sysName, wl, grid))
}

// evaluateWork builds the workFn computing one (system, workload, grid)
// tuple — shared by /v1/evaluate and /v1/batch items so both populate
// the same cache entries.
func (s *Server) evaluateWork(sysName string, wl embench.Workload, grid carbon.Grid) workFn {
	return func(ctx context.Context, memo *core.Memo, buf *bytes.Buffer) (int64, error) {
		sys, err := core.SystemByName(sysName)
		if err != nil {
			return 0, err
		}
		res, err := memo.EvaluateContext(ctx, sys, wl, grid)
		if err != nil {
			return 0, err
		}
		encStart := time.Now()
		err = core.WriteJSONOne(buf, res)
		return time.Since(encStart).Nanoseconds(), err
	}
}

// suiteRequest asks for the full per-workload comparison suite.
type suiteRequest struct {
	// Grid names the energy grid (default "US").
	Grid string `json:"grid"`
}

func (s *Server) handleSuite(w http.ResponseWriter, r *http.Request) {
	var req suiteRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Grid == "" {
		req.Grid = "US"
	}
	grid, err := carbon.GridByName(req.Grid)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.serveComputed(w, r, suiteKey(grid.Name), func(ctx context.Context, memo *core.Memo, buf *bytes.Buffer) (int64, error) {
		rows, err := memo.SuiteContext(ctx, grid)
		if err != nil {
			return 0, err
		}
		encStart := time.Now()
		err = core.WriteSuiteJSON(buf, rows)
		return time.Since(encStart).Nanoseconds(), err
	})
}

// tcdpRequest asks for the carbon-efficiency comparison of the two
// designs at a lifetime: the tCDP ratio, crossovers, and the Fig. 6a
// isoline sampled at the requested operational scales.
type tcdpRequest struct {
	// Workload is a bundled kernel name (default "matmult-int").
	Workload string `json:"workload"`
	// Grid names the energy grid (default "US").
	Grid string `json:"grid"`
	// Months is the system lifetime (default 24).
	Months float64 `json:"months"`
	// OpScales samples the isoline x(y) at these operational-energy
	// scales (default 0.25..1.5 in steps of 0.25).
	OpScales []float64 `json:"op_scales"`
}

// tcdpDesign is one design's slice of the tCDP response.
type tcdpDesign struct {
	System            string  `json:"system"`
	EmbodiedG         float64 `json:"embodied_g"`
	OperationalG      float64 `json:"operational_g"`
	TCG               float64 `json:"tc_g"`
	TCDPGS            float64 `json:"tcdp_gs"`
	EmbodiedOpCrossMo float64 `json:"embodied_operational_crossover_months"`
}

// isolinePoint is one sample of the Fig. 6a isoline.
type isolinePoint struct {
	OpScale       float64 `json:"op_scale"`
	EmbodiedScale float64 `json:"embodied_scale"`
}

// tcdpResponse is the /v1/tcdp payload.
type tcdpResponse struct {
	Workload string  `json:"workload"`
	Grid     string  `json:"grid"`
	Months   float64 `json:"months"`
	// TCDPRatio is tCDP(all-Si)/tCDP(M3D); >1 means the M3D design wins.
	TCDPRatio float64    `json:"tcdp_ratio"`
	Si        tcdpDesign `json:"si"`
	M3D       tcdpDesign `json:"m3d"`
	// TCCrossoverMonths is where the designs' total-carbon curves cross
	// (omitted when one design dominates at every lifetime).
	TCCrossoverMonths *float64       `json:"tc_crossover_months,omitempty"`
	Isoline           []isolinePoint `json:"isoline"`
}

// maxTCDPInput bounds a what-if's months and op_scales. It is far past
// any physical lifetime or energy scale; what it keeps out are values
// like 1e308, whose isoline or carbon totals overflow to ±Inf, which no
// JSON body can carry.
const maxTCDPInput = 1e6

func (s *Server) handleTCDP(w http.ResponseWriter, r *http.Request) {
	var req tcdpRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Workload == "" {
		req.Workload = "matmult-int"
	}
	if req.Grid == "" {
		req.Grid = "US"
	}
	if req.Months == 0 {
		req.Months = 24
	}
	if req.Months <= 0 || req.Months > maxTCDPInput {
		writeError(w, http.StatusBadRequest, fmt.Errorf("months must be in (0, %g]", maxTCDPInput))
		return
	}
	if len(req.OpScales) == 0 {
		req.OpScales = []float64{0.25, 0.5, 0.75, 1.0, 1.25, 1.5}
	}
	for _, y := range req.OpScales {
		if y <= 0 || y > maxTCDPInput {
			writeError(w, http.StatusBadRequest, fmt.Errorf("op_scales must be in (0, %g]", maxTCDPInput))
			return
		}
	}
	wl, err := embench.ByName(req.Workload)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	grid, err := carbon.GridByName(req.Grid)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key := RequestKey("tcdp", wl.Name, grid.Name, req.Months, req.OpScales)
	s.serveComputed(w, r, key, func(ctx context.Context, memo *core.Memo, buf *bytes.Buffer) (int64, error) {
		return computeTCDP(ctx, memo, buf, wl, grid, req.Months, req.OpScales)
	})
}

// computeTCDP evaluates both designs through memo and encodes the
// lifetime what-if. Only the tcdp arithmetic depends on months and
// opScales, so with a warm memo a novel lifetime costs no stage run; on
// a cold one the pair evaluation runs its leaf stages concurrently.
func computeTCDP(ctx context.Context, memo *core.Memo, buf *bytes.Buffer, wl embench.Workload, grid carbon.Grid, months float64, opScales []float64) (int64, error) {
	si, m3d, err := memo.EvaluatePairContext(ctx, wl, grid)
	if err != nil {
		return 0, err
	}
	sc := tcdp.PaperScenario()
	life := units.Months(months)
	a, b := si.DesignPoint(), m3d.DesignPoint()

	ratio, err := tcdp.Ratio(a, b, sc, life)
	if err != nil {
		return 0, err
	}
	resp := tcdpResponse{
		Workload:  wl.Name,
		Grid:      grid.Name,
		Months:    months,
		TCDPRatio: ratio,
	}
	for _, d := range []struct {
		pt  tcdp.DesignPoint
		out *tcdpDesign
	}{{a, &resp.Si}, {b, &resp.M3D}} {
		tc, err := tcdp.TC(d.pt, sc, life)
		if err != nil {
			return 0, err
		}
		prod, err := tcdp.TCDP(d.pt, sc, life)
		if err != nil {
			return 0, err
		}
		cross, err := tcdp.EmbodiedOperationalCrossover(d.pt, sc)
		if err != nil {
			return 0, err
		}
		*d.out = tcdpDesign{
			System:            d.pt.Name,
			EmbodiedG:         tc.Embodied.Grams(),
			OperationalG:      tc.Operational.Grams(),
			TCG:               tc.TC().Grams(),
			TCDPGS:            prod,
			EmbodiedOpCrossMo: float64(cross),
		}
	}
	if cross, err := tcdp.DesignCrossover(a, b, sc); err == nil {
		v := float64(cross)
		resp.TCCrossoverMonths = &v
	}
	iso, err := tcdp.Isoline(b, a, sc, life)
	if err != nil {
		return 0, err
	}
	for _, y := range opScales {
		resp.Isoline = append(resp.Isoline, isolinePoint{OpScale: y, EmbodiedScale: iso(y)})
	}
	encStart := time.Now()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(resp)
	return time.Since(encStart).Nanoseconds(), err
}

// gridInfo is one entry of the /v1/grids discovery response.
type gridInfo struct {
	Name             string  `json:"name"`
	IntensityGPerKWh float64 `json:"intensity_g_per_kwh"`
}

// workloadInfo is one entry of the /v1/workloads discovery response.
type workloadInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// encodeStaticBodies renders the discovery responses once at startup:
// grids and workloads are compiled in, so their bodies never change and
// per-request encoding would be pure waste.
func (s *Server) encodeStaticBodies() {
	grids := make([]gridInfo, 0, 4)
	for _, g := range carbon.Grids() {
		grids = append(grids, gridInfo{Name: g.Name, IntensityGPerKWh: g.Intensity.GramsPerKilowattHour()})
	}
	ws := embench.Workloads()
	wls := make([]workloadInfo, 0, len(ws))
	for _, wl := range ws {
		wls = append(wls, workloadInfo{Name: wl.Name, Description: wl.Description})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(grids); err != nil {
		panic(fmt.Sprintf("server: encoding static grids body: %v", err))
	}
	s.gridsBody = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := enc.Encode(wls); err != nil {
		panic(fmt.Sprintf("server: encoding static workloads body: %v", err))
	}
	s.workloadsBody = append([]byte(nil), buf.Bytes()...)
}

func (s *Server) handleGrids(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(s.gridsBody)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(s.workloadsBody)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// BeginShutdown flips /healthz to draining. Call it before
// http.Server.Shutdown so load balancers stop routing here while
// in-flight requests drain.
func (s *Server) BeginShutdown() {
	s.draining.Store(true)
}

// handleHealth is readiness: a draining server answers 503 so load
// balancers stop routing to it before the listener closes
// (BeginShutdown flips the flag ahead of drain). Use /livez for
// liveness — it stays 200 for as long as the process can serve at all.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if strings.HasPrefix(s.persist.Store, "degraded") {
		status = "degraded"
	}
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	body := map[string]any{
		"status":       status,
		"uptime_s":     time.Since(s.started).Seconds(),
		"queue_depth":  s.pool.QueueDepth(),
		"cache_shards": s.cache.Shards(),
		"persistence":  s.persist,
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}

// handleLive is liveness: 200 whenever the process is up, draining
// included. Orchestrators restart on /livez failures and deroute on
// /healthz failures; conflating the two turns every drain into a kill.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{"status": "alive"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = s.metrics.WriteTo(w)
}
