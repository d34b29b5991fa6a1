// Command ppatcd serves the PPAtC engine as a long-lived JSON API. Run
// with no arguments to start the daemon:
//
//	ppatcd -addr :8037 -workers 4 -queue 64 -cache 512
//
// Endpoints:
//
//	POST /v1/evaluate   {"system":"m3d","workload":"matmult-int","grid":"US"}
//	POST /v1/batch      {"items":[{"system":"si","workload":"crc32"}, ...]}
//	POST /v1/suite      {"grid":"US"}
//	POST /v1/tcdp       {"workload":"matmult-int","grid":"US","months":24}
//	POST /v1/sweeps     design-space sweep spec → async job (202 + job ID)
//	GET  /v1/sweeps     job listing
//	GET  /v1/sweeps/{id}           job status and progress
//	GET  /v1/sweeps/{id}/results   NDJSON result stream (follows live jobs)
//	GET  /v1/sweeps/{id}/frontier  Pareto/sensitivity/winner analyses
//	DELETE /v1/sweeps/{id}         cancel
//	GET  /v1/results    stored-result listing (?prefix= filters; needs -store-dir)
//	GET  /v1/results/{key}         one stored result, byte-identical (URL-escaped key)
//	GET  /v1/grids      grid discovery
//	GET  /v1/workloads  workload discovery
//	GET  /healthz       readiness (503 while draining or store-degraded)
//	GET  /livez         liveness (200 while the process is up)
//	GET  /metrics       Prometheus-style counters and latency histograms
//	                    (request + per-pipeline-stage run times from the
//	                    stage memo + ppatcd_sweep_* + endpoint×disposition
//	                    + slowest-request exemplars)
//	GET  /v1/metrics/stream  Server-Sent Events: completed-request flight
//	                    events plus periodic counter snapshots
//	GET  /debug/flight  flight-recorder dump, NDJSON, one event per line
//	                    (?ring=recent|slow|all, ?n= newest n)
//
// Sweep jobs are keyed by the spec hash: POSTing the same spec twice
// lands on the same job.
//
// With -store-dir the daemon persists every computed result —
// evaluate/suite/tcdp responses, sweep points and finished sweeps — to
// an on-disk segment store. A restarted daemon warms its cache from the
// store, replays finished sweeps under their old IDs, and adopts
// already-computed points into new sweep jobs, so an interrupted sweep
// resumes and historical work is never re-evaluated. Store failures
// degrade to compute-on-miss, count in ppatcd_store_errors_total, and
// are surfaced on /healthz.
//
// The daemon caches results (the pipeline is deterministic; the cache is
// striped across -cache-shards locks), coalesces concurrent identical
// requests, bounds concurrency with a worker pool, and drains in-flight
// requests on SIGTERM/SIGINT. /v1/batch evaluates up to 256 tuples per
// request through the same cache and pool.
//
// Observability: every request gets a trace ID (taken from an incoming
// X-Request-ID header when present), echoed on the response and logged
// with the request's latency and cache disposition. Appending ?trace=1
// to an evaluation endpoint returns the stage-level span tree inline;
// those timings appear only there, since ppatcd_stage_seconds counts the
// stage memo's runs. -pprof mounts net/http/pprof at /debug/pprof/.
// Logs are structured slog records; -log-level and -log-format select
// verbosity and text/JSON encoding.
//
// Every request additionally records a latency attribution — wall clock
// split into queue_wait / cache_lookup / compute / encode / store_write
// — into an always-on flight recorder retaining the last -flight-slots
// completed requests plus everything slower than -slow-ms (those are
// also logged at warn with their stage breakdown). Dump it with
// -call flight or GET /debug/flight.
//
// On SIGTERM the daemon flips /healthz to 503 before the -drain window
// starts, so load balancers stop routing to it while it can still
// answer; /livez stays 200 throughout.
//
// Client mode drives a running daemon without curl:
//
//	ppatcd -call evaluate -data '{"system":"si","workload":"crc32"}'
//	ppatcd -call grids -addr http://localhost:8037
//	ppatcd -call sweep -data @spec.json
//	ppatcd -call sweep-results -id 3f1c9a2b7d04
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"ppatc/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ppatcd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ppatcd", flag.ContinueOnError)
	addr := fs.String("addr", ":8037", "listen address (serve mode) or base URL (client mode)")
	workers := fs.Int("workers", 0, "evaluation workers (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 64, "request queue depth before 503s")
	cache := fs.Int("cache", 512, "LRU result-cache entries")
	cacheShards := fs.Int("cache-shards", 16, "result-cache lock stripes (rounded up to a power of two)")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-request evaluation timeout")
	drain := fs.Duration("drain", 30*time.Second, "shutdown drain window for in-flight requests")
	logLevel := fs.String("log-level", "info", "log verbosity: debug, info, warn, error")
	logFormat := fs.String("log-format", "json", "log encoding: text or json")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof at /debug/pprof/")
	sweepQueue := fs.Int("sweep-queue", 8, "queued sweep jobs before 503s")
	sweepRunners := fs.Int("sweep-runners", 1, "sweep jobs executing concurrently")
	sweepMaxPoints := fs.Int("sweep-max-points", 0, "largest accepted sweep plan (0 = 100000)")
	storeDir := fs.String("store-dir", "", "persistent result-store directory (results survive restarts; sweeps resume from it)")
	storeMaxSegment := fs.Int64("store-max-segment-bytes", 0, "segment-store file size cap (0 = 8 MiB)")
	slowMS := fs.Int("slow-ms", 100, "slow-request threshold in milliseconds (retained in the flight recorder's slow ring and logged at warn; 0 disables)")
	flightSlots := fs.Int("flight-slots", 1024, "flight-recorder recent-events ring size (rounded up to a power of two)")
	call := fs.String("call", "", "client mode: endpoint to call (evaluate, batch, suite, tcdp, sweep, sweeps, sweep-status, sweep-results, sweep-frontier, sweep-cancel, results, result, grids, workloads, health, metrics, flight)")
	data := fs.String("data", "", "client mode: JSON request body ('@file' reads a file)")
	jobID := fs.String("id", "", "client mode: sweep job ID for sweep-status/results/frontier/cancel")
	key := fs.String("key", "", "client mode: stored-result key for -call result")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *call != "" {
		return clientCall(*addr, *call, *data, *jobID, *key)
	}
	logger, err := buildLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	return serve(*addr, server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cache,
		CacheShards:    *cacheShards,
		RequestTimeout: *timeout,
		Logger:         logger,
		EnablePprof:    *pprofOn,
		SweepQueue:     *sweepQueue,
		SweepRunners:   *sweepRunners,
		SweepMaxPoints: *sweepMaxPoints,

		StoreDir:             *storeDir,
		StoreMaxSegmentBytes: *storeMaxSegment,

		FlightRecentSlots: *flightSlots,
		SlowThreshold:     slowThreshold(*slowMS),
	}, *drain)
}

// slowThreshold converts the -slow-ms flag to a Config value: 0 means
// "disable", which Config spells as a negative duration (zero selects
// the default).
func slowThreshold(ms int) time.Duration {
	if ms <= 0 {
		return -1
	}
	return time.Duration(ms) * time.Millisecond
}

// buildLogger assembles the daemon's slog.Logger from the -log-level and
// -log-format flags.
func buildLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (valid: debug, info, warn, error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (valid: text, json)", format)
	}
}

func serve(addr string, cfg server.Config, drain time.Duration) error {
	logger := cfg.Logger
	srv := server.New(cfg)
	defer srv.Close()

	hs := &http.Server{Addr: addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		// Flip /healthz to not-ready BEFORE the drain starts: load
		// balancers stop routing to this node while it can still answer
		// its in-flight requests.
		srv.BeginShutdown()
		logger.Info("shutdown", "reason", "signal", "drain", drain.String())
		dctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		shutdownErr <- hs.Shutdown(dctx)
	}()

	logger.Info("listening", "addr", addr)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		return err
	}
	// Shutdown returned: in-flight requests have drained (or the drain
	// window expired); the deferred srv.Close reaps the worker pool.
	if err := <-shutdownErr; err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	logger.Info("stopped")
	return nil
}

// clientCall posts to (or gets from) a running daemon and streams the
// response to stdout. Paths containing {id} substitute the -id flag;
// {key} substitutes the -key flag, escaped (store keys contain "|").
func clientCall(addr, endpoint, data, jobID, key string) error {
	base := addr
	if !strings.Contains(base, "://") {
		if strings.HasPrefix(base, ":") {
			base = "localhost" + base
		}
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	routes := map[string]struct {
		method, path string
	}{
		"evaluate":       {http.MethodPost, "/v1/evaluate"},
		"batch":          {http.MethodPost, "/v1/batch"},
		"suite":          {http.MethodPost, "/v1/suite"},
		"tcdp":           {http.MethodPost, "/v1/tcdp"},
		"sweep":          {http.MethodPost, "/v1/sweeps"},
		"sweeps":         {http.MethodGet, "/v1/sweeps"},
		"sweep-status":   {http.MethodGet, "/v1/sweeps/{id}"},
		"sweep-results":  {http.MethodGet, "/v1/sweeps/{id}/results"},
		"sweep-frontier": {http.MethodGet, "/v1/sweeps/{id}/frontier"},
		"sweep-cancel":   {http.MethodDelete, "/v1/sweeps/{id}"},
		"results":        {http.MethodGet, "/v1/results"},
		"result":         {http.MethodGet, "/v1/results/{key}"},
		"grids":          {http.MethodGet, "/v1/grids"},
		"workloads":      {http.MethodGet, "/v1/workloads"},
		"health":         {http.MethodGet, "/healthz"},
		"metrics":        {http.MethodGet, "/metrics"},
		"flight":         {http.MethodGet, "/debug/flight"},
	}
	rt, ok := routes[endpoint]
	if !ok {
		names := make([]string, 0, len(routes))
		for n := range routes {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown -call %q (valid: %s)", endpoint, strings.Join(names, ", "))
	}
	if strings.Contains(rt.path, "{id}") {
		if jobID == "" {
			return fmt.Errorf("-call %s needs -id <job id>", endpoint)
		}
		rt.path = strings.Replace(rt.path, "{id}", jobID, 1)
	}
	if strings.Contains(rt.path, "{key}") {
		if key == "" {
			return fmt.Errorf("-call %s needs -key <stored-result key>", endpoint)
		}
		rt.path = strings.Replace(rt.path, "{key}", url.PathEscape(key), 1)
	}
	body := io.Reader(nil)
	if rt.method == http.MethodPost {
		if data == "" {
			data = "{}"
		}
		if after, ok := strings.CutPrefix(data, "@"); ok {
			b, err := os.ReadFile(after)
			if err != nil {
				return err
			}
			data = string(b)
		}
		body = strings.NewReader(data)
	}
	req, err := http.NewRequest(rt.method, base+rt.path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(os.Stdout, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: %s", rt.method, rt.path, resp.Status)
	}
	return nil
}
