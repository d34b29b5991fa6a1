package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ppatc/internal/obs"
	"ppatc/internal/obs/flight"
)

// The flight-recorder surface: GET /debug/flight dumps the recorder's
// retained events as NDJSON, and GET /v1/metrics/stream pushes completed
// request events (plus periodic counter snapshots) over Server-Sent
// Events — the seed of the streaming API surface.

// Recorder exposes the flight recorder (tests, the repository benchmark).
func (s *Server) Recorder() *flight.Recorder { return s.recorder }

// handleFlight dumps the flight recorder as NDJSON, one Event per line,
// in ascending sequence order. Query parameters: ?ring=recent|slow|all
// (default all) selects which ring(s); ?n= keeps only the newest n
// events. The dump is copy-on-read — safe to hit on a daemon at full
// load.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	ring := "all"
	max := 0
	if r.URL.RawQuery != "" {
		q := r.URL.Query()
		if v := q.Get("ring"); v != "" {
			ring = v
		}
		if v := q.Get("n"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad n %q", v))
				return
			}
			max = n
		}
	}
	evs := s.recorder.Dump(ring, max)
	if evs == nil && ring != "all" && ring != "recent" && ring != "slow" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown ring %q (valid: recent, slow, all)", ring))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Flight-Dropped", strconv.FormatInt(s.recorder.Dropped(), 10))
	enc := json.NewEncoder(w)
	for i := range evs {
		if err := enc.Encode(&evs[i]); err != nil {
			return
		}
	}
}

// streamSnapshot is the periodic counter snapshot pushed on the SSE
// stream between request events.
type streamSnapshot struct {
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`
	Coalesced   int64  `json:"coalesced"`
	Rejections  int64  `json:"rejections"`
	QueueDepth  int64  `json:"queue_depth"`
	FlightSeq   uint64 `json:"flight_seq"`
	Dropped     int64  `json:"flight_dropped"`
}

// metricsStreamHeartbeat paces the snapshot events; var so tests can
// tighten it.
var metricsStreamHeartbeat = 5 * time.Second

// metricsStreamKeepAlive paces the ": ping" comment lines that keep an
// idle stream's connection alive through proxies and NATs (SSE clients
// ignore comment lines by spec); var so tests can tighten it.
var metricsStreamKeepAlive = 15 * time.Second

// handleMetricsStream pushes completed-request flight events as
// Server-Sent Events ("event: flight"), with a periodic counter
// snapshot ("event: metrics"). The subscription is released the moment
// the client disconnects; slow consumers miss events rather than
// back-pressuring the request path.
func (s *Server) handleMetricsStream(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported by connection"))
		return
	}
	rid := r.Header.Get("X-Request-ID")
	if rid == "" {
		rid = obs.NewID()
	}
	w.Header().Set("X-Request-ID", rid)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	events, cancel := s.recorder.Hub().Subscribe(64)
	defer cancel()

	enc := json.NewEncoder(w)
	writeEvent := func(kind string, v any) bool {
		if _, err := fmt.Fprintf(w, "event: %s\ndata: ", kind); err != nil {
			return false
		}
		if err := enc.Encode(v); err != nil { // Encode appends the newline
			return false
		}
		if _, err := fmt.Fprint(w, "\n"); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	snapshot := func() streamSnapshot {
		return streamSnapshot{
			CacheHits:   s.metrics.CacheHits.Load(),
			CacheMisses: s.metrics.CacheMisses.Load(),
			Coalesced:   s.metrics.Coalesced.Load(),
			Rejections:  s.metrics.Rejections.Load(),
			QueueDepth:  s.pool.QueueDepth(),
			FlightSeq:   s.recorder.Seq(),
			Dropped:     s.recorder.Dropped(),
		}
	}
	if !writeEvent("metrics", snapshot()) {
		return
	}

	ticker := time.NewTicker(metricsStreamHeartbeat)
	defer ticker.Stop()
	keepAlive := time.NewTicker(metricsStreamKeepAlive)
	defer keepAlive.Stop()
	for {
		select {
		case ev := <-events:
			if !writeEvent("flight", &ev) {
				return
			}
		case <-ticker.C:
			if !writeEvent("metrics", snapshot()) {
				return
			}
		case <-keepAlive.C:
			if _, err := fmt.Fprint(w, ": ping\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		case <-s.base.Done():
			return
		}
	}
}
