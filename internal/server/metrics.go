package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"ppatc/internal/core"
	"ppatc/internal/obs"
)

// Metrics is the daemon's observability surface, built on the shared
// obs.Registry so the CLI, daemon, and any future backend declare their
// instruments against one implementation. It keeps per-endpoint request
// counters and latency histograms, the cache/coalescing/backpressure
// counters, and per-pipeline-stage run-time histograms read from the
// stage memo's record of its runs. All methods are safe for concurrent
// use.
type Metrics struct {
	reg         *obs.Registry
	requests    *obs.CounterVec
	latency     *obs.HistogramVec
	disposition *obs.HistogramVec2
	// queueWait is the worker-pool queue wait by admission class
	// (interactive/bulk) — the per-class head-of-line signal the
	// admission-control scheduler is judged on.
	queueWait *obs.HistogramVec

	// slowest tracks the worst-latency request seen per
	// endpoint × disposition pair, with its request ID — the exemplar
	// that turns a histogram tail into a greppable flight-recorder and
	// log lookup. Rendered by WriteTo as
	// ppatcd_slowest_request_seconds gauge lines.
	slowMu  sync.Mutex
	slowest map[string]map[string]slowExemplar

	// CacheHits/CacheMisses count result-cache lookups; Coalesced counts
	// requests that piggybacked on an identical in-flight computation;
	// Rejections counts requests turned away by a full queue.
	CacheHits, CacheMisses, Coalesced, Rejections *obs.Counter

	// SweepPoints counts design points evaluated by sweep jobs;
	// SweepJobs counts finished jobs by terminal status; SweepSeconds
	// is the job-duration histogram, by terminal status.
	SweepPoints  *obs.Counter
	SweepJobs    *obs.CounterVec
	SweepSeconds *obs.HistogramVec

	// StoreHits counts cache misses served from the persistent result
	// store; StoreWrites counts successful write-throughs; StoreErrors
	// counts store operations that failed and degraded to compute.
	StoreHits, StoreWrites, StoreErrors *obs.Counter

	// queueDepth, cacheLen, sweepQueue, storeKeys, flightDropped and
	// streamSubs are gauge hooks wired by the server.
	queueDepth            func() int64
	queueDepthInteractive func() int64
	queueDepthBulk        func() int64
	cacheLen              func() int
	sweepQueue            func() int
	storeKeys             func() int
	flightDropped         func() int64
	streamSubs            func() int64
	// memo is the server's stage memo. WriteTo renders its record of
	// stage runs as ppatcd_stage_seconds and its counters as
	// ppatcd_stage_memo_{hits,misses}_total.
	memo *core.Memo
}

// slowExemplar is one endpoint × disposition pair's worst request.
type slowExemplar struct {
	requestID string
	d         time.Duration
}

// sweepBuckets span the sweep-duration range: seconds for smoke sweeps
// up to an hour for full Monte Carlo studies.
var sweepBuckets = []float64{0.1, 0.5, 1, 5, 10, 30, 60, 300, 600, 1800, 3600}

// NewMetrics builds the daemon's metric set on a fresh registry.
func NewMetrics() *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{
		reg:                   reg,
		slowest:               make(map[string]map[string]slowExemplar),
		queueDepth:            func() int64 { return 0 },
		queueDepthInteractive: func() int64 { return 0 },
		queueDepthBulk:        func() int64 { return 0 },
		cacheLen:              func() int { return 0 },
		sweepQueue:            func() int { return 0 },
		storeKeys:             func() int { return 0 },
		flightDropped:         func() int64 { return 0 },
		streamSubs:            func() int64 { return 0 },
		memo:                  core.NewMemo(),
	}
	m.requests = reg.CounterVec("ppatcd_requests_total", "Requests served, by endpoint.", "endpoint")
	m.CacheHits = reg.Counter("ppatcd_cache_hits_total", "Result-cache hits.")
	m.CacheMisses = reg.Counter("ppatcd_cache_misses_total", "Result-cache misses.")
	m.Coalesced = reg.Counter("ppatcd_coalesced_total", "Requests coalesced onto an identical in-flight computation.")
	m.Rejections = reg.Counter("ppatcd_rejections_total", "Requests rejected by a full queue.")
	reg.GaugeFunc("ppatcd_queue_depth", "Jobs waiting in the worker queue.",
		func() float64 { return float64(m.queueDepth()) })
	reg.GaugeFunc("ppatcd_queue_depth_interactive", "Interactive-class jobs waiting in the worker queue.",
		func() float64 { return float64(m.queueDepthInteractive()) })
	reg.GaugeFunc("ppatcd_queue_depth_bulk", "Bulk-class jobs waiting in the worker queue.",
		func() float64 { return float64(m.queueDepthBulk()) })
	m.queueWait = reg.HistogramVec("ppatcd_queue_wait_seconds",
		"Worker-pool queue wait, by admission class (interactive/bulk).", "class", nil)
	reg.GaugeFunc("ppatcd_cache_entries", "Entries in the result cache.",
		func() float64 { return float64(m.cacheLen()) })
	m.latency = reg.HistogramVec("ppatcd_request_seconds", "Request latency, by endpoint.", "endpoint", nil)
	m.disposition = reg.HistogramVec2("ppatcd_request_disposition_seconds",
		"Request latency, by endpoint and cache disposition (HIT/MISS/COALESCED/STORE/BYPASS/NONE).",
		"endpoint", "disposition", nil)
	reg.GaugeFunc("ppatcd_flight_dropped_total", "Flight-recorder events dropped to slot contention.",
		func() float64 { return float64(m.flightDropped()) })
	reg.GaugeFunc("ppatcd_stream_subscribers", "Live /v1/metrics/stream subscriptions.",
		func() float64 { return float64(m.streamSubs()) })
	m.SweepPoints = reg.Counter("ppatcd_sweep_points_total", "Design points evaluated by sweep jobs.")
	m.SweepJobs = reg.CounterVec("ppatcd_sweep_jobs_total", "Sweep jobs finished, by terminal status.", "status")
	m.SweepSeconds = reg.HistogramVec("ppatcd_sweep_seconds", "Sweep job duration, by terminal status.", "status", sweepBuckets)
	reg.GaugeFunc("ppatcd_sweep_queue_depth", "Sweep jobs waiting for a runner.",
		func() float64 { return float64(m.sweepQueue()) })
	m.StoreHits = reg.Counter("ppatcd_store_hits_total", "Cache misses served from the persistent result store.")
	m.StoreWrites = reg.Counter("ppatcd_store_writes_total", "Results written through to the persistent store.")
	m.StoreErrors = reg.Counter("ppatcd_store_errors_total", "Persistent store operations that failed (degraded to compute).")
	reg.GaugeFunc("ppatcd_store_keys", "Live keys in the persistent result store.",
		func() float64 { return float64(m.storeKeys()) })
	return m
}

// Observe records one served request on an endpoint.
func (m *Metrics) Observe(endpoint string, d time.Duration) {
	m.requests.With(endpoint).Add(1)
	m.latency.With(endpoint).Observe(d)
}

// ObserveDisposition records one served request on the
// endpoint × disposition latency surface — fed from every request,
// cache hits and coalesced requests included (the plain stage
// histograms only see stage-memo runs) — and keeps the
// worst-latency request ID as an exemplar.
//
//ppatc:hotpath
func (m *Metrics) ObserveDisposition(endpoint, disposition string, d time.Duration, requestID string) {
	m.disposition.With(endpoint, disposition).Observe(d)
	m.slowMu.Lock()
	inner, ok := m.slowest[endpoint]
	if !ok {
		inner = make(map[string]slowExemplar)
		m.slowest[endpoint] = inner
	}
	if d > inner[disposition].d {
		inner[disposition] = slowExemplar{requestID: requestID, d: d}
	}
	m.slowMu.Unlock()
}

// ObserveQueueWait records one computation's measured pool queue wait
// on its admission class.
//
//ppatc:hotpath
func (m *Metrics) ObserveQueueWait(class string, d time.Duration) {
	m.queueWait.With(class).Observe(d)
}

// QueueWaitCount reports the per-class queue-wait histogram's
// observation count (used by tests).
func (m *Metrics) QueueWaitCount(class string) int64 {
	return m.queueWait.With(class).Count()
}

// DispositionCount reports the endpoint × disposition histogram's
// observation count (used by tests).
func (m *Metrics) DispositionCount(endpoint, disposition string) int64 {
	return m.disposition.With(endpoint, disposition).Count()
}

// Requests reports the request count of an endpoint.
func (m *Metrics) Requests(endpoint string) int64 {
	return m.requests.With(endpoint).Load()
}

// WriteTo renders the registry in Prometheus text exposition format,
// followed by the stage run-time histograms, the stage-memo counters and
// the slowest-request exemplar gauges.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	n, err := m.reg.WriteTo(w)
	if err != nil {
		return n, err
	}
	sn, err := m.writeStageSeconds(w)
	n += sn
	if err != nil {
		return n, err
	}
	mn, err := m.writeMemoStats(w)
	n += mn
	if err != nil {
		return n, err
	}
	en, err := m.writeExemplars(w)
	return n + en, err
}

// writeStageSeconds renders the stage memo's record of its runs as the
// per-stage run-time histograms, built afresh on every scrape: the memo
// owns the record, and a stage runs only on a memo miss, so each
// stage's _count equals its ppatcd_stage_memo_misses_total. Every stage
// renders, with zero runs until it first runs.
func (m *Metrics) writeStageSeconds(w io.Writer) (int64, error) {
	reg := obs.NewRegistry()
	vec := reg.HistogramVec("ppatcd_stage_seconds", "Pipeline stage run time, by stage: one observation per stage the memo ran.", "stage", nil)
	for _, stage := range core.Stages() {
		vec.With(stage)
	}
	for _, run := range m.memo.StageRuns() {
		vec.With(run.Stage).Observe(run.Duration)
	}
	return reg.WriteTo(w)
}

// writeMemoStats renders the stage memo's hit and miss counters, one
// line per core.Stages() name: a miss is a stage that actually ran, a
// hit one replayed from the memo. The memo owns the counts, so they are
// read at render time rather than mirrored into registry counters.
func (m *Metrics) writeMemoStats(w io.Writer) (int64, error) {
	stats := m.memo.Stats()
	var n int64
	for _, fam := range []struct {
		name, help string
		val        func(core.MemoStageStats) int64
	}{
		{"ppatcd_stage_memo_hits_total", "Pipeline stages replayed from the stage memo, by stage.",
			func(s core.MemoStageStats) int64 { return s.Hits }},
		{"ppatcd_stage_memo_misses_total", "Pipeline stages run and stored in the stage memo, by stage.",
			func(s core.MemoStageStats) int64 { return s.Misses }},
	} {
		c, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", fam.name, fam.help, fam.name)
		n += int64(c)
		if err != nil {
			return n, err
		}
		for _, stage := range core.Stages() {
			c, err := fmt.Fprintf(w, "%s{stage=%q} %d\n", fam.name, stage, fam.val(stats[stage]))
			n += int64(c)
			if err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// writeExemplars renders one gauge line per endpoint × disposition
// pair carrying the worst observed latency and the request ID that
// produced it — the jump-off point from a histogram tail to the flight
// recorder and logs.
func (m *Metrics) writeExemplars(w io.Writer) (int64, error) {
	m.slowMu.Lock()
	type row struct {
		endpoint, disposition, requestID string
		seconds                          float64
	}
	rows := make([]row, 0, len(m.slowest))
	for ep, inner := range m.slowest {
		for disp, ex := range inner {
			rows = append(rows, row{ep, disp, ex.requestID, ex.d.Seconds()})
		}
	}
	m.slowMu.Unlock()
	if len(rows) == 0 {
		return 0, nil
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].endpoint != rows[j].endpoint {
			return rows[i].endpoint < rows[j].endpoint
		}
		return rows[i].disposition < rows[j].disposition
	})
	var n int64
	c, err := fmt.Fprintf(w, "# HELP ppatcd_slowest_request_seconds Worst observed request latency, by endpoint and disposition, with its request ID.\n# TYPE ppatcd_slowest_request_seconds gauge\n")
	n += int64(c)
	if err != nil {
		return n, err
	}
	for _, r := range rows {
		c, err := fmt.Fprintf(w, "ppatcd_slowest_request_seconds{endpoint=%q,disposition=%q,request_id=%q} %g\n",
			r.endpoint, r.disposition, r.requestID, r.seconds)
		n += int64(c)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
