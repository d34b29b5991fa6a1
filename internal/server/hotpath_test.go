package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ppatc/internal/obs/flight"
)

func TestShardedLRURoundsAndSpreads(t *testing.T) {
	if got := NewShardedLRU(64, 5).Shards(); got != 8 {
		t.Errorf("5 shards should round up to 8, got %d", got)
	}
	if got := NewLRU(8).Shards(); got != 1 {
		t.Errorf("NewLRU must stay single-shard, got %d", got)
	}
	if got := NewShardedLRU(64, 0).Shards(); got != 1 {
		t.Errorf("0 shards should clamp to 1, got %d", got)
	}

	// Per-shard capacity 64 with 64 distinct keys: no shard can overflow
	// regardless of hash distribution, so every key must survive.
	c := NewShardedLRU(512, 8)
	for i := 0; i < 64; i++ {
		c.Put(fmt.Sprintf("key-%d", i), []byte{byte(i)})
	}
	if c.Len() != 64 {
		t.Fatalf("Len = %d, want 64", c.Len())
	}
	for i := 0; i < 64; i++ {
		v, ok := c.Get(fmt.Sprintf("key-%d", i))
		if !ok || len(v) != 1 || v[0] != byte(i) {
			t.Fatalf("key-%d: got %v, %v", i, v, ok)
		}
	}
}

func TestShardedLRUEvictsPerShard(t *testing.T) {
	// Per-shard capacity 1: two keys landing on the same shard evict each
	// other; keys on different shards coexist.
	c := NewShardedLRU(8, 8)
	anchor := "anchor"
	c.Put(anchor, []byte("a"))
	var collider, other string
	for i := 0; i < 1000 && (collider == "" || other == ""); i++ {
		k := fmt.Sprintf("probe-%d", i)
		if c.shard(k) == c.shard(anchor) {
			if collider == "" {
				collider = k
			}
		} else if other == "" {
			other = k
		}
	}
	if collider == "" || other == "" {
		t.Fatal("could not find colliding and non-colliding probe keys")
	}
	c.Put(other, []byte("o"))
	if _, ok := c.Get(anchor); !ok {
		t.Error("different-shard Put must not evict anchor")
	}
	c.Put(collider, []byte("c"))
	if _, ok := c.Get(anchor); ok {
		t.Error("same-shard Put at capacity 1 must evict anchor")
	}
	if _, ok := c.Get(other); !ok {
		t.Error("other shard's entry must survive")
	}
}

// TestLRUPutCopies pins the aliasing fix: the cache owns its bytes, so a
// caller scribbling over the slice it passed to Put (e.g. a pooled
// encode buffer being reused) must not corrupt the cached entry.
func TestLRUPutCopies(t *testing.T) {
	c := NewLRU(4)
	src := []byte("hello world")
	stored := c.Put("k", src)
	src[0] = 'X'
	if got, ok := c.Get("k"); !ok || string(got) != "hello world" {
		t.Fatalf("cached entry corrupted by caller mutation: %q, %v", got, ok)
	}
	if string(stored) != "hello world" {
		t.Fatalf("Put's returned slice aliases the caller's: %q", stored)
	}
	// Overwriting an existing key copies too.
	src2 := []byte("second")
	c.Put("k", src2)
	src2[0] = 'Z'
	if got, _ := c.Get("k"); string(got) != "second" {
		t.Fatalf("overwritten entry corrupted by caller mutation: %q", got)
	}
}

func TestLRUGetAllocFree(t *testing.T) {
	c := NewShardedLRU(64, 8)
	c.Put("k", []byte("v"))
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := c.Get("k"); !ok {
			t.Error("unexpected miss")
		}
	})
	if allocs != 0 {
		t.Errorf("Get allocates %.1f times per call, want 0", allocs)
	}
}

func TestShardedLRUConcurrent(t *testing.T) {
	c := NewShardedLRU(128, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key-%d", (g*31+i)%64)
				c.Put(k, []byte(k))
				if v, ok := c.Get(k); ok && string(v) != k {
					t.Errorf("got %q for key %q", v, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFlightGroupLeaderCancel pins the detachment fix: a leader whose
// context dies mid-computation must get its context error back promptly
// (previously it ran fn inline and blocked until fn returned), while the
// computation finishes on its own and delivers the result to waiters.
func TestFlightGroupLeaderCancel(t *testing.T) {
	g := newFlightGroup()
	started := make(chan struct{})
	release := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	leaderErr := make(chan error, 1)
	go func() {
		_, _, _, err := g.Do(ctx, "k", func() ([]byte, flight.Breakdown, error) {
			close(started)
			<-release
			return []byte("result"), flight.Breakdown{}, nil
		})
		leaderErr <- err
	}()
	<-started

	type waitResult struct {
		val    []byte
		shared bool
		err    error
	}
	waiter := make(chan waitResult, 1)
	go func() {
		v, _, sh, err := g.Do(context.Background(), "k", func() ([]byte, flight.Breakdown, error) {
			return nil, flight.Breakdown{}, errors.New("waiter must not start its own computation")
		})
		waiter <- waitResult{v, sh, err}
	}()

	time.Sleep(20 * time.Millisecond) // let the waiter join the in-flight call
	cancel()
	select {
	case err := <-leaderErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled leader returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled leader stayed blocked on the computation")
	}

	close(release)
	select {
	case res := <-waiter:
		if res.err != nil || string(res.val) != "result" || !res.shared {
			t.Fatalf("waiter got (%q, shared=%v, err=%v), want the leader's result", res.val, res.shared, res.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never received the detached computation's result")
	}
}

// TestCacheHitAllocBudget guards the hot path against alloc regressions.
// The pre-optimization baseline was ~700 allocs per cache-hit request
// (dominated by rebuilding the embench workload suite per lookup). A
// hit now measures 42 (go1.24.0, including per-run request and
// recorder construction); the budget leaves ~50% headroom for
// toolchain drift, so a change that adds a handful of allocations per
// hit fails here rather than passing unnoticed.
func TestCacheHitAllocBudget(t *testing.T) {
	srv := New(quietConfig())
	defer srv.Close()
	h := srv.Handler()
	body := `{"system":"si","workload":"crc32","grid":"US"}`

	warm := httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, warm)
	if rec.Code != http.StatusOK {
		t.Fatalf("warm request failed: %d %s", rec.Code, rec.Body.String())
	}

	hit := func() {
		r := httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "HIT" {
			t.Errorf("not a cache hit: %d %q", w.Code, w.Header().Get("X-Cache"))
		}
	}

	// The flight recorder is always on, so this budget covers the full
	// attribution + recording path.
	allocs := testing.AllocsPerRun(50, hit)
	const budget = 64
	if allocs > budget {
		t.Errorf("cache-hit request allocates %.0f times, budget %d (baseline ~700)", allocs, budget)
	}

	// A live stream subscriber must not add per-request allocations:
	// publishing an event into the hub's buffered channel is alloc-free.
	events, cancel := srv.Recorder().Hub().Subscribe(4096)
	defer cancel()
	withSub := testing.AllocsPerRun(50, hit)
	if withSub > allocs+1 {
		t.Errorf("cache-hit allocates %.0f times with a stream subscriber vs %.0f without", withSub, allocs)
	}
	if len(events) == 0 {
		t.Error("stream subscriber received no events")
	}
}

// TestWhatIfMissAllocBudget guards the daemon's cold path: a /v1/tcdp
// request at a new lifetime misses the response cache but replays every
// pipeline stage from the warm stage memo, so what it allocates is the
// serving overhead (request, pool round trip, cache and store write,
// flight recording) plus the evaluation assembly, the tCDP arithmetic
// and its encoding. A miss measures 1,832 allocations (go1.24.0). The
// budget leaves a margin of 8, below the 16 a per-miss span tree once
// cost here, so per-miss telemetry that creeps back fails this test.
func TestWhatIfMissAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	srv := New(quietConfig())
	defer srv.Close()
	h := srv.Handler()
	months := 24
	miss := func() {
		months++
		r := httptest.NewRequest(http.MethodPost, "/v1/tcdp",
			strings.NewReader(fmt.Sprintf(`{"workload":"crc32","months":%d}`, months)))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "MISS" {
			t.Errorf("not a cache miss: %d %q", w.Code, w.Header().Get("X-Cache"))
		}
	}
	miss() // warms the stage memo
	allocs := testing.AllocsPerRun(20, miss)
	const budget = 1840
	if allocs > budget {
		t.Errorf("warm what-if miss allocates %.0f times, budget %d", allocs, budget)
	}
	t.Logf("warm what-if miss: %.0f allocs", allocs)
}

// BenchmarkEvaluateCacheHit is the repeatable hot-path measurement:
//
//	go test ./internal/server/ -run xxx -bench EvaluateCacheHit -benchmem
func BenchmarkEvaluateCacheHit(b *testing.B) {
	srv := New(Config{Workers: 2, QueueDepth: 16, CacheEntries: 32,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer srv.Close()
	h := srv.Handler()
	body := `{"system":"si","workload":"crc32","grid":"US"}`
	warm := httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, warm)
	if rec.Code != http.StatusOK {
		b.Fatalf("warm request failed: %d %s", rec.Code, rec.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
		if d := w.Header().Get("X-Cache"); d != "HIT" {
			b.Fatalf("disposition %q", d)
		}
	}
}
