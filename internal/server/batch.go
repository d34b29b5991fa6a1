package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"ppatc/internal/carbon"
	"ppatc/internal/core"
	"ppatc/internal/embench"
	"ppatc/internal/obs/flight"
)

// maxBatchItems bounds one /v1/batch request. A full cross product of
// the bundled systems, workloads and grids is 2×8×4 = 64 tuples; 256
// leaves headroom without letting one request monopolize the pool.
const maxBatchItems = 256

// batchInteractiveMisses is the admission-control threshold: a batch
// whose cache probe leaves at most this many misses is classified
// interactive (it is request-sized work), anything colder is bulk.
const batchInteractiveMisses = 4

// batchChunk bounds one sub-unit of a cold /v1/batch fan-out: a bulk
// batch's misses are split into chunks of this many items that run
// sequentially, so one batch occupies at most misses/batchChunk pool
// slots at a time and concurrent batches interleave.
const batchChunk = 16

// batchItem names one evaluation tuple of a batch request.
type batchItem struct {
	// System is "all-Si", "M3D IGZO/CNFET/Si", or the shorthands si/m3d.
	System string `json:"system"`
	// Workload is a bundled Embench-style kernel name.
	Workload string `json:"workload"`
	// Grid names the energy grid (default "US").
	Grid string `json:"grid"`
}

// batchRequest asks for many evaluations in one round trip.
type batchRequest struct {
	Items []batchItem `json:"items"`
}

// batchItemResult is one item's slice of the batch response: the echoed
// (canonicalized) tuple plus either the evaluation result or the item's
// own error. Item errors don't fail the batch — each item stands alone.
type batchItemResult struct {
	Index    int             `json:"index"`
	System   string          `json:"system,omitempty"`
	Workload string          `json:"workload,omitempty"`
	Grid     string          `json:"grid,omitempty"`
	Cache    string          `json:"cache,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// batchResponse is the /v1/batch envelope.
type batchResponse struct {
	Count int               `json:"count"`
	Items []batchItemResult `json:"items"`
}

// handleBatch evaluates a list of (system, workload, grid) tuples in one
// request. Each item resolves through the same cache keys as
// /v1/evaluate — cached tuples are answered inline, the rest fan out
// across the worker pool (duplicate tuples within the batch coalesce via
// the flight group). Invalid items report their error in place; the
// batch as a whole fails only on malformed JSON, an empty or oversized
// item list, or a dead/cancelled request context.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("batch needs at least one item"))
		return
	}
	if len(req.Items) > maxBatchItems {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d items exceeds the limit of %d", len(req.Items), maxBatchItems))
		return
	}

	att := attributionOf(w)
	att.BatchSize = len(req.Items)

	out := batchResponse{
		Count: len(req.Items),
		Items: make([]batchItemResult, len(req.Items)),
	}
	// First pass, inline: canonicalize every tuple and serve the cache
	// hits without touching a goroutine. Misses are collected for fan-out.
	type pending struct {
		idx  int
		key  string
		work workFn
	}
	var misses []pending
	//ppatcvet:ignore determinism latency attribution measures wall time only; it never flows into response bytes
	lookupStart := time.Now()
	sawHit := false
	for i, it := range req.Items {
		res := &out.Items[i]
		res.Index = i
		if it.Grid == "" {
			it.Grid = "US"
		}
		sysName, err := core.CanonicalSystemName(it.System)
		if err != nil {
			res.Error = err.Error()
			continue
		}
		wl, err := embench.ByName(it.Workload)
		if err != nil {
			res.Error = err.Error()
			continue
		}
		grid, err := carbon.GridByName(it.Grid)
		if err != nil {
			res.Error = err.Error()
			continue
		}
		res.System, res.Workload, res.Grid = sysName, wl.Name, grid.Name
		key := evaluateKey(sysName, wl.Name, grid.Name)
		if b, ok := s.cache.Get(key); ok {
			s.metrics.CacheHits.Add(1)
			res.Cache = "HIT"
			res.Result = b
			sawHit = true
			continue
		}
		misses = append(misses, pending{idx: i, key: key, work: s.evaluateWork(sysName, wl, grid)})
	}
	att.CacheLookupNS += time.Since(lookupStart).Nanoseconds()

	// Second pass: evaluate the misses. Admission classification uses
	// the cache probe the first pass already paid for: a batch with at
	// most a handful of misses is interactive-sized work, while a cold
	// batch is bulk — its computations queue behind every interactive
	// job, so single evaluations never wait out a 256-tuple fan-out.
	// Bulk batches are additionally chunked: misses are split into
	// bounded sub-units that run their items sequentially, so one batch
	// occupies at most len(misses)/chunk pool slots at a time and the
	// scheduler interleaves chunks of concurrent batches.
	if len(misses) > 0 {
		class := ClassBulk
		if len(misses) <= batchInteractiveMisses {
			class = ClassInteractive
		}
		att.Class = class.String()
		ctx := r.Context()
		chunks := make([][]pending, 0, (len(misses)+batchChunk-1)/batchChunk)
		for lo := 0; lo < len(misses); lo += batchChunk {
			hi := lo + batchChunk
			if hi > len(misses) {
				hi = len(misses)
			}
			chunks = append(chunks, misses[lo:hi])
		}
		sem := make(chan struct{}, s.cfg.Workers)
		var wg sync.WaitGroup
		// Per-item attributions are private to each goroutine; after the
		// barrier they are folded into the request's attribution with the
		// concurrent fan-out's wall clock split proportionally across
		// stages — item times overlap, so their raw sum would exceed the
		// latency the client actually saw.
		itemAtts := make([]flight.Attribution, len(misses))
		//ppatcvet:ignore determinism latency attribution measures wall time only; it never flows into response bytes
		fanStart := time.Now()
		base := 0
		for _, chunk := range chunks {
			wg.Add(1)
			go func(base int, chunk []pending) {
				defer wg.Done()
				if !acquireSlot(ctx, sem) {
					return
				}
				defer func() { <-sem }()
				for i, p := range chunk {
					ia := &itemAtts[base+i]
					ia.RequestID = att.RequestID
					ia.Class = class.String()
					// Everything between the fan-out start and this item's
					// turn — the chunk's semaphore wait plus its predecessors'
					// runtime — is the same head-of-line pressure as the pool
					// queue: count it as queue_wait so a cold batch behind a
					// saturated pool attributes honestly.
					ia.QueueWaitNS += time.Since(fanStart).Nanoseconds()
					res := &out.Items[p.idx]
					body, disposition, err := s.compute(ctx, p.key, p.work, ia)
					ia.Disposition = disposition
					if err != nil {
						res.Error = err.Error()
						continue
					}
					res.Cache = disposition
					res.Result = body
				}
			}(base, chunk)
			base += len(chunk)
		}
		wg.Wait()
		wallNS := time.Since(fanStart).Nanoseconds()
		att.Add(splitFanOut(itemAtts, wallNS))
		// A dead client can't use partial results; report the
		// cancellation (or timeout) as the batch outcome.
		if err := ctx.Err(); err != nil {
			s.writeComputeError(w, err)
			return
		}
		att.Disposition = aggregateDisposition(itemAtts, sawHit)
	} else if sawHit {
		att.Disposition = "HIT"
	}
	w.Header().Set("X-Cache", att.DispositionOrNone())

	writeJSON(w, out)
}

// splitFanOut folds the per-item stage timings of a concurrent fan-out
// into one breakdown whose sum equals the fan-out's wall clock: each
// stage gets its proportional share. Wall-clock attribution of
// overlapping work is inherently a model; proportional split keeps the
// partition invariant (stages re-add to the total) while preserving
// what dominated — a cold batch stuck behind a saturated pool shows up
// as mostly queue_wait, exactly the head-of-line signal ROADMAP item 2
// needs.
func splitFanOut(items []flight.Attribution, wallNS int64) flight.Breakdown {
	var sum flight.Breakdown
	for i := range items {
		sum.Add(items[i].Breakdown)
	}
	total := sum.Sum()
	if wallNS <= 0 {
		// The whole fan-out fit inside one timer tick; there is no wall
		// time to attribute.
		return flight.Breakdown{}
	}
	if total <= 0 {
		// Zero denominator: every item completed without recording any
		// stage time (an all-hit fan-out inside clock resolution).
		// Dividing here would make the scale NaN and poison every stage;
		// fall back to attributing the full wall time to "other" so the
		// partition invariant (stages re-add to the total) still holds.
		return flight.Breakdown{OtherNS: wallNS}
	}
	scale := float64(wallNS) / float64(total)
	if scale > 1 {
		// Items accounted for less than the wall clock (scheduling
		// overhead); never inflate stages — the difference lands in
		// "other".
		scale = 1
	}
	bd := sum.Scale(scale)
	// Truncation and the scale clamp leave the split short of the wall
	// clock; report the shortfall explicitly instead of leaving it to
	// the end-to-end residual.
	if short := wallNS - bd.Sum(); short > 0 {
		bd.OtherNS += short
	}
	return bd
}

// acquireSlot takes one fan-out semaphore slot, or gives up the moment
// ctx dies: a cancelled batch must not keep its remaining chunks queued
// behind a saturated fan-out, holding goroutines alive for a client
// that already hung up.
func acquireSlot(ctx context.Context, sem chan struct{}) bool {
	select {
	case sem <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// aggregateDisposition reduces a batch's per-item dispositions to one
// headline value, worst-first: a single miss makes the batch a MISS.
func aggregateDisposition(items []flight.Attribution, sawHit bool) string {
	saw := map[string]bool{}
	for i := range items {
		saw[items[i].Disposition] = true
	}
	switch {
	case saw["MISS"]:
		return "MISS"
	case saw["STORE"]:
		return "STORE"
	case saw["COALESCED"]:
		return "COALESCED"
	case sawHit || saw["HIT"]:
		return "HIT"
	default:
		return ""
	}
}
