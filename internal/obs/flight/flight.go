// Package flight is the always-on request telemetry layer of the
// daemon: per-request latency attribution plus a fixed-size in-memory
// flight recorder retaining the most recent completed requests and
// every request slower than a threshold.
//
// Attribution splits a request's wall clock into named stages —
// queue_wait, cache_lookup, compute, encode, store_write — with the
// residual reported explicitly as "other" rather than silently
// dropped, so the stage sum always cross-checks against the end-to-end
// latency the same way provenance records cross-check against final
// numbers. The recorder is a pair of power-of-two rings (recent +
// slow) written lock-free from request goroutines and dumped
// copy-on-read; the record path makes zero steady-state allocations so
// it can stay enabled at full load.
package flight

import (
	"fmt"
	"time"
)

// Stage names, in the order they are reported. "other" is the
// explicitly-reported unattributed residual (request decode, response
// write, scheduling), so the stages always partition the total.
var Stages = []string{
	"queue_wait", "cache_lookup", "compute", "encode", "store_write", "other",
}

// Event is one completed request's attribution record: the compact,
// fixed-size value stored in the recorder rings and dumped as NDJSON.
//
//ppatc:schema
type Event struct {
	// Seq is the recorder-assigned monotonic sequence number (1-based;
	// 0 marks an empty ring slot).
	Seq uint64 `json:"seq"`
	// StartUnixNano is the request's admission wall-clock time.
	StartUnixNano int64 `json:"start_unix_ns"`

	Endpoint  string `json:"endpoint"`
	RequestID string `json:"request_id"`
	// Disposition is the cache disposition: HIT, MISS, COALESCED,
	// STORE, BYPASS, or NONE for endpoints that don't compute.
	Disposition string `json:"disposition"`
	Status      int    `json:"status"`
	// BatchSize is the item count of a /v1/batch request (0 otherwise).
	BatchSize int `json:"batch_size,omitempty"`
	// AdmissionClass is the worker-pool class the request's computation
	// was admitted under ("interactive" or "bulk"; empty for requests
	// that never reached the pool).
	AdmissionClass string `json:"admission_class,omitempty"`
	// PoolDepth is the worker-pool queue depth at admission — the
	// head-of-line pressure this request walked into.
	PoolDepth int64 `json:"pool_depth"`

	// Stage durations, nanoseconds. OtherNS is the measured residual:
	// TotalNS minus the attributed stages, clamped at zero.
	QueueWaitNS   int64 `json:"queue_wait_ns"`
	CacheLookupNS int64 `json:"cache_lookup_ns"`
	ComputeNS     int64 `json:"compute_ns"`
	EncodeNS      int64 `json:"encode_ns"`
	StoreWriteNS  int64 `json:"store_write_ns"`
	OtherNS       int64 `json:"other_ns"`
	// TotalNS is the end-to-end request latency, measured
	// independently of the stages.
	TotalNS int64 `json:"total_ns"`

	// Slow marks an event that met the recorder's slow threshold (it
	// is retained in the slow ring as well as the recent ring).
	Slow bool `json:"slow,omitempty"`
}

// StageNS returns the named stage's duration. Unknown names return 0.
func (e *Event) StageNS(stage string) int64 {
	switch stage {
	case "queue_wait":
		return e.QueueWaitNS
	case "cache_lookup":
		return e.CacheLookupNS
	case "compute":
		return e.ComputeNS
	case "encode":
		return e.EncodeNS
	case "store_write":
		return e.StoreWriteNS
	case "other":
		return e.OtherNS
	}
	return 0
}

// StageSumNS is the sum of every reported stage, including the
// explicit residual.
func (e *Event) StageSumNS() int64 {
	return e.QueueWaitNS + e.CacheLookupNS + e.ComputeNS +
		e.EncodeNS + e.StoreWriteNS + e.OtherNS
}

// CheckTotal cross-checks the stage sum against the end-to-end
// latency, tolerating a relative error of tol (e.g. 0.01 for 1%).
// The attribution discipline is the same as provenance: every claimed
// breakdown must re-add to the number it claims to explain.
func (e *Event) CheckTotal(tol float64) error {
	sum := e.StageSumNS()
	diff := sum - e.TotalNS
	if diff < 0 {
		diff = -diff
	}
	limit := int64(tol * float64(e.TotalNS))
	if diff > limit {
		return fmt.Errorf("flight: event %d (%s): stage sum %dns vs total %dns exceeds %.2g tolerance",
			e.Seq, e.Endpoint, sum, e.TotalNS, tol)
	}
	return nil
}

// Breakdown is the computation-side stage set, declared once: the
// stages measured inside a single-flight computation, shared verbatim
// with every coalesced waiter of that computation's leader, and,
// embedded in Attribution, a request's running stage totals.
type Breakdown struct {
	QueueWaitNS   int64
	CacheLookupNS int64
	ComputeNS     int64
	EncodeNS      int64
	StoreWriteNS  int64
	// OtherNS is wall time a computation measured but could not ascribe
	// to a named stage (e.g. a batch fan-out whose items recorded no
	// stage time at clock resolution). It folds into the event's
	// explicit "other" stage, keeping the partition invariant.
	OtherNS int64
}

// Add folds o's stage durations into the breakdown; an Attribution
// folds a computation's measured stages into its request this way.
//
//ppatc:hotpath
func (b *Breakdown) Add(o Breakdown) {
	b.QueueWaitNS += o.QueueWaitNS
	b.CacheLookupNS += o.CacheLookupNS
	b.ComputeNS += o.ComputeNS
	b.EncodeNS += o.EncodeNS
	b.StoreWriteNS += o.StoreWriteNS
	b.OtherNS += o.OtherNS
}

// Sum is the total of every stage duration.
//
//ppatc:hotpath
func (b Breakdown) Sum() int64 {
	return b.QueueWaitNS + b.CacheLookupNS + b.ComputeNS +
		b.EncodeNS + b.StoreWriteNS + b.OtherNS
}

// Scale returns the stage durations multiplied by f, each truncated to
// whole nanoseconds.
func (b Breakdown) Scale(f float64) Breakdown {
	return Breakdown{
		QueueWaitNS:   int64(float64(b.QueueWaitNS) * f),
		CacheLookupNS: int64(float64(b.CacheLookupNS) * f),
		ComputeNS:     int64(float64(b.ComputeNS) * f),
		EncodeNS:      int64(float64(b.EncodeNS) * f),
		StoreWriteNS:  int64(float64(b.StoreWriteNS) * f),
		OtherNS:       int64(float64(b.OtherNS) * f),
	}
}

// Attribution accumulates one request's stage timings while it is in
// flight; Finish seals it into an Event. The zero value is ready to
// use. Attribution is owned by a single request goroutine and must not
// be shared; cross-goroutine stage timings arrive via Breakdown values
// returned over happens-before edges (channel close).
type Attribution struct {
	Endpoint    string
	RequestID   string
	Disposition string
	BatchSize   int
	PoolDepth   int64
	// Class is the admission class the request's computation ran under
	// ("interactive" or "bulk"; empty when it never reached the pool).
	Class string

	// Breakdown holds the stage timings. Its OtherNS accumulates
	// explicitly-unattributable measured time; Finish adds the
	// end-to-end residual on top of it.
	Breakdown
}

// DispositionOrNone returns the disposition, or "NONE" when unset
// (endpoints that don't touch the cache).
//
//ppatc:hotpath
func (a *Attribution) DispositionOrNone() string {
	if a.Disposition == "" {
		return "NONE"
	}
	return a.Disposition
}

// Finish seals the attribution into an Event: the unattributed
// residual becomes the explicit "other" stage so the stage sum always
// re-adds to the end-to-end total. start stamps the event; total is
// the independently measured request latency.
//
//ppatc:hotpath
func (a *Attribution) Finish(start time.Time, total time.Duration, status int) Event {
	totalNS := total.Nanoseconds()
	residual := totalNS - a.Sum()
	if residual < 0 {
		// Stage clocks read inside the computation can overshoot the
		// outer clock by scheduling wobble; never report negative time.
		residual = 0
	}
	other := a.OtherNS + residual
	disp := a.Disposition
	if disp == "" {
		disp = "NONE"
	}
	return Event{
		StartUnixNano:  start.UnixNano(),
		Endpoint:       a.Endpoint,
		RequestID:      a.RequestID,
		Disposition:    disp,
		Status:         status,
		BatchSize:      a.BatchSize,
		AdmissionClass: a.Class,
		PoolDepth:      a.PoolDepth,
		QueueWaitNS:    a.QueueWaitNS,
		CacheLookupNS:  a.CacheLookupNS,
		ComputeNS:      a.ComputeNS,
		EncodeNS:       a.EncodeNS,
		StoreWriteNS:   a.StoreWriteNS,
		OtherNS:        other,
		TotalNS:        totalNS,
	}
}
