package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppatc/internal/obs/flight"
)

func TestPoolRunsJobs(t *testing.T) {
	p := NewPool(4, 8)
	defer p.Close()
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Do(context.Background(), ClassInteractive, func() { ran.Add(1) }); err != nil && !errors.Is(err, ErrQueueFull) {
				t.Errorf("Do: %v", err)
			}
		}()
	}
	wg.Wait()
	if ran.Load() == 0 {
		t.Error("no jobs ran")
	}
}

func TestPoolQueueFull(t *testing.T) {
	p := NewPool(1, 1)
	defer p.Close()

	block := make(chan struct{})
	started := make(chan struct{})
	go p.Do(context.Background(), ClassInteractive, func() { close(started); <-block })
	<-started // the single worker is now busy

	// Fill the queue slot, then the next submission must be rejected.
	queued := make(chan error, 1)
	go func() {
		_, err := p.Do(context.Background(), ClassInteractive, func() {})
		queued <- err
	}()
	// Wait until the queued job occupies the slot.
	for i := 0; p.QueueDepth() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if d := p.QueueDepth(); d != 1 {
		t.Fatalf("queue depth = %d, want 1", d)
	}
	if _, err := p.Do(context.Background(), ClassInteractive, func() {}); !errors.Is(err, ErrQueueFull) {
		t.Errorf("Do with full queue = %v, want ErrQueueFull", err)
	}

	close(block)
	if err := <-queued; err != nil {
		t.Errorf("queued job: %v", err)
	}
}

func TestPoolSkipsCanceledJobs(t *testing.T) {
	p := NewPool(1, 4)
	defer p.Close()

	block := make(chan struct{})
	started := make(chan struct{})
	go p.Do(context.Background(), ClassInteractive, func() { close(started); <-block })
	<-started

	// Queue a job, then cancel it before the worker can pick it up.
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	errc := make(chan error, 1)
	go func() {
		_, err := p.Do(ctx, ClassInteractive, func() { ran.Store(true) })
		errc <- err
	}()
	for i := 0; p.QueueDepth() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Errorf("canceled Do = %v, want context.Canceled", err)
	}
	close(block)
	p.Close() // drain: the canceled job must have been skipped, not run
	if ran.Load() {
		t.Error("worker ran a job whose context was already canceled")
	}
}

func TestPoolClose(t *testing.T) {
	p := NewPool(2, 2)
	var ran atomic.Int64
	for i := 0; i < 2; i++ {
		go p.Do(context.Background(), ClassInteractive, func() { ran.Add(1) })
	}
	time.Sleep(10 * time.Millisecond)
	p.Close()
	p.Close() // idempotent
	if _, err := p.Do(context.Background(), ClassInteractive, func() {}); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Do after Close = %v, want ErrPoolClosed", err)
	}
}

func TestLRU(t *testing.T) {
	c := NewLRU(2)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("c", []byte("3")) // evicts b (a was just used)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if v, ok := c.Get("a"); !ok || string(v) != "1" {
		t.Errorf("a = %q, %v", v, ok)
	}
	if v, ok := c.Get("c"); !ok || string(v) != "3" {
		t.Errorf("c = %q, %v", v, ok)
	}
	c.Put("a", []byte("updated"))
	if v, _ := c.Get("a"); string(v) != "updated" {
		t.Errorf("a after update = %q", v)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestRequestKeyDistinct(t *testing.T) {
	a := RequestKey("evaluate", "all-Si", "crc32", "US")
	b := RequestKey("evaluate", "all-Si", "crc32", "Coal")
	c := RequestKey("suite", "all-Si", "crc32", "US")
	if a == b || a == c {
		t.Errorf("keys should differ: %q %q %q", a, b, c)
	}
	if a != RequestKey("evaluate", "all-Si", "crc32", "US") {
		t.Error("key is not deterministic")
	}
}

func TestFlightGroupCoalesces(t *testing.T) {
	g := newFlightGroup()
	var executions atomic.Int64
	block := make(chan struct{})

	const callers = 8
	var wg sync.WaitGroup
	results := make([][]byte, callers)
	shareds := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			v, _, shared, err := g.Do(context.Background(), "key", func() ([]byte, flight.Breakdown, error) {
				executions.Add(1)
				<-block
				return []byte("result"), flight.Breakdown{}, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[slot] = v
			shareds[slot] = shared
		}(i)
	}
	// Let every caller either become the leader or park as a waiter.
	for i := 0; executions.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(block)
	wg.Wait()

	if n := executions.Load(); n != 1 {
		t.Errorf("fn executed %d times, want 1", n)
	}
	leaders := 0
	for i := range results {
		if string(results[i]) != "result" {
			t.Errorf("caller %d got %q", i, results[i])
		}
		if !shareds[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("%d leaders, want 1", leaders)
	}
}

func TestFlightGroupWaiterCancel(t *testing.T) {
	g := newFlightGroup()
	block := make(chan struct{})
	started := make(chan struct{})
	go g.Do(context.Background(), "key", func() ([]byte, flight.Breakdown, error) {
		close(started)
		<-block
		return nil, flight.Breakdown{}, nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, shared, err := g.Do(ctx, "key", func() ([]byte, flight.Breakdown, error) { return nil, flight.Breakdown{}, nil })
	if !shared || !errors.Is(err, context.Canceled) {
		t.Errorf("canceled waiter: shared=%v err=%v", shared, err)
	}
	close(block)
}
