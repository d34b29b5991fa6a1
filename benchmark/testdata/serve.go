package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ppatc/internal/obs/flight"
	"ppatc/internal/server"
)

// serveParams sizes the serving workloads: the warm set, the batch
// payloads and the what-if traffic. The seed picks the batch contents
// and the request schedules, never the warm set.
type serveParams struct {
	systems, kernels, grids []string
	suite                   bool
	batches, batchItems     int
	// rate is serve-whatif's mean arrival rate (requests per second) and
	// whatifShare the exact share of its arrivals that are what-ifs.
	rate, whatifShare float64
}

var serveDefaults = serveParams{
	systems:     []string{"si", "m3d"},
	kernels:     []string{"crc32", "edn", "huff", "sieve"},
	grids:       []string{"US", "Coal"},
	suite:       true,
	batches:     8,
	batchItems:  16,
	rate:        100,
	whatifShare: 0.06,
}

// The classes of cache-hit request, and the percentage of each in the
// hot traffic of both serving workloads.
const (
	classEvaluate = iota
	classBatch
	classTCDP
	classSuite
)

// hotMix is cmd/ppatcload's default mix, the one every committed
// BENCH_*.json was recorded with.
var hotMix = [4]int{classEvaluate: 60, classBatch: 15, classTCDP: 15, classSuite: 10}

const (
	// hotTailPct is serve-hot's tail percentile: ~10^6 requests a run.
	hotTailPct = 99
	// whatifTailPct is serve-whatif's: ~120 what-ifs a run.
	whatifTailPct = 90
	// maxLateMS is the generator lateness above which a serve-whatif run
	// no longer measures the arrival schedule it claims to.
	maxLateMS = 50
)

// request is one request of the serving workloads.
type request struct {
	// name keys the request in golden.json.
	name, path string
	body       []byte
	// want is the body every repeat of the request must return, recorded
	// while warming; what-ifs, never repeated, have none.
	want []byte
	// system, workload and grid are an evaluate request's inputs;
	// workload and months a what-if's.
	system, workload, grid string
	months                 float64
}

// serveFixture is a warmed in-process server and the request table the
// hot traffic draws from.
type serveFixture struct {
	srv *server.Server
	h   http.Handler
	// classes holds the requests of each class; hot concatenates them in
	// class order.
	classes [4][]*request
	hot     []*request
}

func (f *serveFixture) close() { f.srv.Close() }

func (f *serveFixture) sizes() [4]int {
	var s [4]int
	for c := range f.classes {
		s[c] = len(f.classes[c])
	}
	return s
}

// newServeFixture starts a server and warms it: every evaluate, tcdp
// and suite key once, then the seed's batch payloads, which hit the
// warmed evaluate entries.
func newServeFixture(seed int64, p serveParams) (*serveFixture, error) {
	srv := server.New(server.Config{
		RequestTimeout: 30 * time.Second,
		// Request logging off: the benchmark measures serving, not the
		// log encoder.
		Logger: slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError})),
	})
	f := &serveFixture{srv: srv, h: srv.Handler()}
	var evals, tcdps, suites []*request
	for _, sys := range p.systems {
		for _, k := range p.kernels {
			for _, g := range p.grids {
				evals = append(evals, &request{
					name: "evaluate " + sys + " " + k + " " + g, path: "/v1/evaluate",
					body:   []byte(fmt.Sprintf(`{"system":%q,"workload":%q,"grid":%q}`, sys, k, g)),
					system: sys, workload: k, grid: g,
				})
			}
		}
	}
	for _, k := range p.kernels {
		tcdps = append(tcdps, &request{name: "tcdp " + k, path: "/v1/tcdp", body: []byte(fmt.Sprintf(`{"workload":%q}`, k))})
	}
	if p.suite {
		suites = append(suites, &request{name: "suite US", path: "/v1/suite", body: []byte(`{"grid":"US"}`)})
	}
	// The suite is the longest computation; starting it first keeps the
	// warm-up from ending on it alone.
	warm := append(append(append([]*request(nil), suites...), tcdps...), evals...)
	if err := warmAll(f.h, warm); err != nil {
		f.close()
		return nil, err
	}
	batches, err := warmBatches(f.h, seed, p, evals)
	if err != nil {
		f.close()
		return nil, err
	}
	f.classes = [4][]*request{classEvaluate: evals, classBatch: batches, classTCDP: tcdps, classSuite: suites}
	for _, c := range f.classes {
		f.hot = append(f.hot, c...)
	}
	return f, nil
}

// warmAll issues each request once, GOMAXPROCS at a time, and records
// its body as the one every repeat must return.
func warmAll(h http.Handler, reqs []*request) error {
	var next atomic.Int64
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				q := reqs[i]
				code, body := issue(h, q)
				if code != http.StatusOK {
					errs[i] = fmt.Errorf("warming %s: status %d: %s", q.name, code, body)
					continue
				}
				q.want = bytes.Clone(body)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// warmBatches builds the seed's batch payloads from the evaluate keys,
// issues each once and checks that every item came back, without an
// item error, carrying its evaluate result.
func warmBatches(h http.Handler, seed int64, p serveParams, evals []*request) ([]*request, error) {
	type item struct {
		System   string `json:"system"`
		Workload string `json:"workload"`
		Grid     string `json:"grid"`
	}
	rng := rand.New(rand.NewSource(seed))
	var out []*request
	for b := 0; b < p.batches; b++ {
		picked := make([]*request, p.batchItems)
		items := make([]item, p.batchItems)
		for i := range items {
			e := evals[rng.Intn(len(evals))]
			picked[i] = e
			items[i] = item{System: e.system, Workload: e.workload, Grid: e.grid}
		}
		body, err := json.Marshal(map[string][]item{"items": items})
		if err != nil {
			return nil, err
		}
		q := &request{name: "batch " + strconv.Itoa(b), path: "/v1/batch", body: body}
		code, resp := issue(h, q)
		if code != http.StatusOK {
			return nil, fmt.Errorf("warming %s: status %d: %s", q.name, code, resp)
		}
		if err := checkBatch(resp, picked); err != nil {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		q.want = bytes.Clone(resp)
		out = append(out, q)
	}
	return out, nil
}

// checkBatch verifies a batch response against the evaluate bodies of
// its items.
func checkBatch(body []byte, items []*request) error {
	var resp struct {
		Count int `json:"count"`
		Items []struct {
			Index  int             `json:"index"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		} `json:"items"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if resp.Count != len(items) || len(resp.Items) != len(items) {
		return fmt.Errorf("batch carries %d of %d items", len(resp.Items), len(items))
	}
	for i, it := range resp.Items {
		if it.Index != i || it.Error != "" || len(it.Result) == 0 {
			return fmt.Errorf("batch item %d: index %d, error %q", i, it.Index, it.Error)
		}
		var got, want bytes.Buffer
		if err := json.Compact(&got, it.Result); err != nil {
			return err
		}
		if err := json.Compact(&want, items[i].want); err != nil {
			return err
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			return fmt.Errorf("batch item %d differs from %s", i, items[i].name)
		}
	}
	return nil
}

// checkGolden compares the warm evaluate, tcdp and suite bodies with
// golden.json; each comparison is an attempt, a mismatch a failure.
func (f *serveFixture) checkGolden(r *result, g *golden) {
	for _, c := range []int{classEvaluate, classTCDP, classSuite} {
		for _, q := range f.classes[c] {
			r.attempted++
			if !r.check("serve body "+q.name, digest(q.want), g.Bodies[q.name]) {
				r.failed++
			}
		}
	}
}

// issue serves one request in process.
func issue(h http.Handler, q *request) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, q.path, bytes.NewReader(q.body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// verify reports whether a response is correct: a repeat must return the
// warmed body byte for byte; a what-if must be a tCDP answer for its own
// kernel and lifetime.
func verify(q *request, code int, body []byte) bool {
	if code != http.StatusOK {
		return false
	}
	if q.want != nil {
		return bytes.Equal(body, q.want)
	}
	var resp struct {
		Workload  string  `json:"workload"`
		Months    float64 `json:"months"`
		TCDPRatio float64 `json:"tcdp_ratio"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return false
	}
	return resp.Workload == q.workload && resp.Months == q.months &&
		resp.TCDPRatio > 0 && !math.IsInf(resp.TCDPRatio, 0)
}

// pickHot draws one request of the hot mix; the result indexes the
// concatenation of the classes. Empty classes drop out of the mix.
func pickHot(rng *rand.Rand, sizes [4]int) int {
	total := 0
	for c, w := range hotMix {
		if sizes[c] > 0 {
			total += w
		}
	}
	x := rng.Intn(total)
	base := 0
	for c, w := range hotMix {
		if sizes[c] > 0 {
			if x < w {
				return base + rng.Intn(sizes[c])
			}
			x -= w
		}
		base += sizes[c]
	}
	panic("pickHot: weights exhausted")
}

// hotSchedule is one serve-hot client's request sequence: n draws of the
// hot mix from a stream that depends on the seed and the client.
func hotSchedule(seed int64, client, n int, sizes [4]int) []int {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	out := make([]int, n)
	for i := range out {
		out[i] = pickHot(rng, sizes)
	}
	return out
}

// arrival is one scheduled serve-whatif request: a what-if, or an index
// into the hot table.
type arrival struct {
	due    time.Duration
	hot    int
	whatif *request
}

// whatifSchedule draws serve-whatif's arrivals: Poisson at p.rate over
// d, the rest the hot mix but for exactly round(p.whatifShare × n)
// what-ifs on distinct (kernel, lifetime) pairs the warm set does not
// hold. The what-ifs fall one to each equal stretch of the arrivals, at
// a random place in it, so the seed varies which cold requests overlap
// but not how many a run holds.
func whatifSchedule(seed int64, p serveParams, d time.Duration, sizes [4]int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	for t := rng.ExpFloat64() / p.rate; t < d.Seconds(); t += rng.ExpFloat64() / p.rate {
		out = append(out, arrival{due: time.Duration(t * float64(time.Second)), hot: -1})
	}
	type pair struct {
		kernel string
		months float64
	}
	var pairs []pair
	for _, k := range p.kernels {
		for m := 0; m < 1200; m++ {
			if months := float64(6+m) / 10; months != 24 {
				pairs = append(pairs, pair{k, months})
			}
		}
	}
	nWhatif := min(int(math.Round(p.whatifShare*float64(len(out)))), len(pairs))
	isWhatif := make([]bool, len(out))
	for k := 0; k < nWhatif; k++ {
		lo, hi := k*len(out)/nWhatif, (k+1)*len(out)/nWhatif
		isWhatif[lo+rng.Intn(hi-lo)] = true
	}
	pick := rng.Perm(len(pairs))
	for i := range out {
		if !isWhatif[i] {
			out[i].hot = pickHot(rng, sizes)
			continue
		}
		pr := pairs[pick[0]]
		pick = pick[1:]
		months := strconv.FormatFloat(pr.months, 'g', -1, 64)
		out[i].whatif = &request{
			name: "whatif " + pr.kernel + " " + months, path: "/v1/tcdp",
			body:     []byte(fmt.Sprintf(`{"workload":%q,"months":%s}`, pr.kernel, months)),
			workload: pr.kernel, months: pr.months,
		}
	}
	return out
}

// flightAgg reduces the server's flight events — the per-request stage
// attribution it publishes — to the server's layer metrics.
type flightAgg struct {
	events, hits, misses         int
	hitMS                        []float64
	computeNS, queueNS, encodeNS int64
}

func (a *flightAgg) add(e *flight.Event) {
	a.events++
	switch e.Disposition {
	case "HIT":
		a.hits++
		a.hitMS = append(a.hitMS, float64(e.TotalNS)/1e6)
	case "MISS":
		a.misses++
		a.computeNS += e.ComputeNS
		a.queueNS += e.QueueWaitNS
		a.encodeNS += e.EncodeNS
	}
}

// subscribe starts reducing the server's flight events into agg; stop
// ends the subscription once every buffered event is in.
func subscribe(srv *server.Server, agg *flightAgg) (stop func()) {
	// The buffer absorbs bursts while the consumer shares the CPUs with
	// the clients; events that still overflow it are dropped by the hub.
	events, cancel := srv.Recorder().Hub().Subscribe(1 << 14)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for e := range events {
			agg.add(&e)
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// traceSlice is how long each traced and untraced stretch of a traced
// serving run lasts. They alternate, starting untraced, so a drift
// over the run does not read as tracing overhead.
const traceSlice = 500 * time.Millisecond

// tracedAt reports whether t falls in a traced stretch of a run that
// started at start.
func tracedAt(start, t time.Time) bool { return (t.Sub(start)/traceSlice)%2 == 1 }

// recordServer sets the server layer metrics from the traced stretches
// of a run; requests is how many requests they issued. Every metric,
// server.miss_count included, covers those stretches only: about half
// the run.
func recordServer(r *result, agg *flightAgg, requests int) {
	if agg.events < requests*9/10 {
		r.warnf("flight stream delivered %d events for %d traced requests", agg.events, requests)
	}
	r.set("server.hit_ms_p50", percentile(agg.hitMS, 50), agg.hits)
	if agg.events > 0 {
		r.set("server.hit_ratio", float64(agg.hits)/float64(agg.events), agg.events)
	}
	r.set("server.miss_count", float64(agg.misses), agg.misses)
	if agg.misses > 0 {
		per := func(ns int64) float64 { return float64(ns) / 1e6 / float64(agg.misses) }
		r.set("server.compute_ms_mean", per(agg.computeNS), agg.misses)
		r.set("server.queue_wait_ms_mean", per(agg.queueNS), agg.misses)
		r.set("server.encode_ms_mean", per(agg.encodeNS), agg.misses)
	}
}

// setupServe sets a warmed server up setupReps times and checks the last
// one's warm bodies against golden.json.
func setupServe(cfg runConfig, p serveParams, r *result) (*serveFixture, error) {
	f, err := timeSetup(r, func() (*serveFixture, error) { return newServeFixture(cfg.seed, p) }, (*serveFixture).close)
	if err != nil {
		return nil, err
	}
	f.checkGolden(r, cfg.golden)
	return f, nil
}

// phaseMeans accumulates the mean request latency of a run's untraced
// [0] and traced [1] parts.
type phaseMeans struct {
	sumMS [2]float64
	n     [2]int
}

func (p *phaseMeans) add(traced bool, ms float64) {
	i := 0
	if traced {
		i = 1
	}
	p.sumMS[i] += ms
	p.n[i]++
}

func (p *phaseMeans) merge(o phaseMeans) {
	for i := range p.n {
		p.sumMS[i] += o.sumMS[i]
		p.n[i] += o.n[i]
	}
}

// overheadPct is the traced part's mean latency over the untraced
// part's, as a percentage above it.
func (p *phaseMeans) overheadPct() float64 {
	if p.n[0] == 0 || p.n[1] == 0 {
		return 0
	}
	return traceOverheadPct(p.sumMS[0]/float64(p.n[0]), p.sumMS[1]/float64(p.n[1]))
}

// hotClient is one serve-hot client's tally.
type hotClient struct {
	lat    *reservoir
	phases phaseMeans
	failed int
}

// runServeHot is the cache-hit serving path: GOMAXPROCS clients in a
// closed loop over the warm set. A traced run reads the flight stream in
// every second traceSlice.
func runServeHot(cfg runConfig, p serveParams) (*result, error) {
	r := newResult()
	f, err := setupServe(cfg, p, r)
	if err != nil {
		return nil, err
	}
	defer f.close()
	clients := make([]hotClient, runtime.GOMAXPROCS(0))
	w := startWindow()
	deadline := w.start.Add(cfg.seconds)
	var wg sync.WaitGroup
	for id := range clients {
		wg.Add(1)
		go func(id int, c *hotClient) {
			defer wg.Done()
			picks := hotSchedule(cfg.seed, id, 1<<14, f.sizes())
			c.lat = newReservoir(cfg.seed+int64(id), 1<<16)
			for i := 0; ; i++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				q := f.hot[picks[i%len(picks)]]
				code, body := issue(f.h, q)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				c.lat.add(ms)
				c.phases.add(cfg.trace && tracedAt(w.start, t0), ms)
				if !verify(q, code, body) {
					c.failed++
				}
			}
		}(id, &clients[id])
	}
	agg := &flightAgg{}
	for on := w.start.Add(traceSlice); cfg.trace && on.Before(deadline); on = on.Add(2 * traceSlice) {
		time.Sleep(time.Until(on))
		stop := subscribe(f.srv, agg)
		time.Sleep(min(time.Until(on.Add(traceSlice)), time.Until(deadline)))
		stop()
	}
	wg.Wait()
	m := w.finish()

	var latMS []float64
	var phases phaseMeans
	ops := 0
	for _, c := range clients {
		latMS = append(latMS, c.lat.ms...)
		ops += c.lat.seen
		r.failed += c.failed
		phases.merge(c.phases)
	}
	r.attempted += ops
	recordOps(r, latMS, ops, m, hotTailPct)
	if cfg.trace {
		r.set("harness.trace_overhead_pct", phases.overheadPct(), ops)
		recordServer(r, agg, phases.n[1])
	}
	return r, nil
}

// spinWindow is how long before a due time the serve-whatif generator
// stops sleeping and yields until the time comes: a sleep alone wakes
// up to a millisecond late when the CPUs are idle.
const spinWindow = 2 * time.Millisecond

func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// runServeWhatif is the open-loop serving path: Poisson arrivals, each
// dispatched in its own goroutine and timed from when it was due, mixing
// cold what-if tCDP requests into the hot traffic. Its ops are the
// what-ifs; the hits around them are checked and counted, and their
// latency is a per-layer metric. A traced run reads the flight stream in
// every second traceSlice.
func runServeWhatif(cfg runConfig, p serveParams) (*result, error) {
	r := newResult()
	f, err := setupServe(cfg, p, r)
	if err != nil {
		return nil, err
	}
	defer f.close()
	arrivals := whatifSchedule(cfg.seed, p, cfg.seconds, f.sizes())
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("serve-whatif: no arrivals in %v", cfg.seconds)
	}
	latMS := make([]float64, len(arrivals))
	lateMS := make([]float64, len(arrivals))
	ok := make([]bool, len(arrivals))
	agg := &flightAgg{}
	var stop func()
	w := startWindow()
	var wg sync.WaitGroup
	for i, a := range arrivals {
		due := w.start.Add(a.due)
		waitUntil(due)
		if traced := cfg.trace && tracedAt(w.start, due); traced && stop == nil {
			stop = subscribe(f.srv, agg)
		} else if !traced && stop != nil {
			stop()
			stop = nil
		}
		lateMS[i] = float64(time.Since(due).Nanoseconds()) / 1e6
		q := a.whatif
		if q == nil {
			q = f.hot[a.hot]
		}
		wg.Add(1)
		go func(i int, q *request, due time.Time) {
			defer wg.Done()
			code, body := issue(f.h, q)
			latMS[i] = float64(time.Since(due).Nanoseconds()) / 1e6
			ok[i] = verify(q, code, body)
		}(i, q, due)
	}
	wg.Wait()
	if stop != nil {
		stop()
	}
	m := w.finish()

	var whatifMS, hitMS []float64
	var phases phaseMeans
	for i, a := range arrivals {
		if !ok[i] {
			r.failed++
		}
		if a.whatif != nil {
			whatifMS = append(whatifMS, latMS[i])
		} else {
			hitMS = append(hitMS, latMS[i])
		}
		phases.add(cfg.trace && tracedAt(w.start, w.start.Add(a.due)), latMS[i])
	}
	r.attempted += len(arrivals)
	late := percentile(lateMS, 99)
	if late > maxLateMS {
		r.warnf("run invalid: generator p99 lateness %.1f ms exceeds %d ms", late, maxLateMS)
	}
	recordOps(r, whatifMS, len(whatifMS), m, whatifTailPct)
	if cfg.trace {
		r.set("whatif.hit_ms_p50", percentile(hitMS, 50), len(hitMS))
		r.set("harness.late_ms_p99", late, len(lateMS))
		r.set("harness.trace_overhead_pct", phases.overheadPct(), len(arrivals))
		recordServer(r, agg, phases.n[1])
	}
	return r, nil
}
