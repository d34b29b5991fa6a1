package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrQueueFull is returned by Pool.Do when the request queue is at
// capacity; callers should surface it as backpressure (HTTP 503).
var ErrQueueFull = errors.New("server: request queue full")

// ErrPoolClosed is returned by Pool.Do after Close.
var ErrPoolClosed = errors.New("server: worker pool closed")

// Class is a job's admission class. Interactive jobs (single
// evaluations, likely-cached work) are always picked before bulk jobs
// (cold batch fan-outs), so a 256-tuple cold batch can never put tens
// of milliseconds of queue ahead of a 100µs request — the head-of-line
// blocking once measured as a 141 ms batch-era p99 against a 0.43 ms
// p95 (see CHANGES.md).
type Class int

const (
	// ClassInteractive is the default class: request-sized work whose
	// latency a client is actively waiting on.
	ClassInteractive Class = iota
	// ClassBulk is throughput work (cold batch chunks) that must not
	// delay interactive jobs.
	ClassBulk
	numClasses
)

// String names the class as it appears in metrics labels and flight
// events.
func (c Class) String() string {
	if c == ClassBulk {
		return "bulk"
	}
	return "interactive"
}

// Pool is a bounded worker pool with one fixed-depth queue per
// admission class. Work is submitted with a context; jobs whose context
// is already done when a worker picks them up are skipped, and a full
// queue rejects immediately rather than blocking the submitter.
// Workers drain the interactive queue strictly before touching bulk,
// and when the pool has at least two workers one of them is reserved
// for interactive work only, so an interactive job's wait is bounded by
// the remaining runtime of at most one in-flight job rather than the
// whole bulk backlog.
type Pool struct {
	queues [numClasses]chan *job
	wg     sync.WaitGroup
	mu     sync.RWMutex
	done   bool
	depth  [numClasses]atomic.Int64
}

type job struct {
	//ppatcvet:ignore ctxflow a queue entry deliberately carries its submitter's context so the worker can skip work the caller abandoned
	ctx  context.Context
	fn   func()
	done chan struct{}
	enq  time.Time
	// wait is how long the job sat queued before a worker picked it up.
	// Written by the worker before close(done); reading it after <-done
	// is ordered by that happens-before edge.
	wait time.Duration
}

// NewPool starts workers goroutines consuming per-class queues of at
// most queue waiting jobs each (minimums of 1 are enforced).
func NewPool(workers, queue int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queue < 1 {
		queue = 1
	}
	p := &Pool{}
	for c := range p.queues {
		p.queues[c] = make(chan *job, queue)
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		// Worker 0 is the reserved interactive lane when the pool is big
		// enough to afford one; a single-worker pool serves both classes.
		go p.worker(i == 0 && workers > 1)
	}
	return p
}

// worker consumes jobs until every queue it serves is closed and
// drained. Interactive work is taken with strict priority: a waiting
// interactive job is always preferred over any number of waiting bulk
// jobs.
func (p *Pool) worker(reserved bool) {
	defer p.wg.Done()
	qi, qb := p.queues[ClassInteractive], p.queues[ClassBulk]
	if reserved {
		qb = nil
	}
	for qi != nil || qb != nil {
		// Strict priority: serve a waiting interactive job first.
		if qi != nil {
			select {
			case j, ok := <-qi:
				if !ok {
					qi = nil
					continue
				}
				p.run(j, ClassInteractive)
				continue
			default:
			}
		}
		// Nothing interactive waiting: block on whichever class delivers
		// first (a nil channel blocks forever, so a closed-and-drained
		// queue simply drops out of the select).
		select {
		case j, ok := <-qi:
			if !ok {
				qi = nil
				continue
			}
			p.run(j, ClassInteractive)
		case j, ok := <-qb:
			if !ok {
				qb = nil
				continue
			}
			p.run(j, ClassBulk)
		}
	}
}

func (p *Pool) run(j *job, c Class) {
	p.depth[c].Add(-1)
	j.wait = time.Since(j.enq)
	if j.ctx.Err() == nil {
		j.fn()
	}
	close(j.done)
}

// Do runs fn on a pool worker under admission class c and blocks until
// it completes or ctx is done. Bulk jobs queue behind every interactive
// job; interactive jobs queue only behind each other. A full queue fails
// fast with ErrQueueFull. When ctx expires while the job is still
// queued, the job is abandoned (the worker skips it). wait is the job's
// measured queue wait — how long it sat behind other work before a
// worker picked it up, the raw signal for head-of-line-blocking
// attribution; it is only meaningful when err is nil (an abandoned or
// rejected job reports 0).
func (p *Pool) Do(ctx context.Context, c Class, fn func()) (wait time.Duration, err error) {
	if c < 0 || c >= numClasses {
		c = ClassInteractive
	}
	j := &job{ctx: ctx, fn: fn, done: make(chan struct{}), enq: time.Now()}
	p.mu.RLock()
	if p.done {
		p.mu.RUnlock()
		return 0, ErrPoolClosed
	}
	select {
	case p.queues[c] <- j:
		p.depth[c].Add(1)
		p.mu.RUnlock()
	default:
		p.mu.RUnlock()
		return 0, ErrQueueFull
	}
	select {
	case <-j.done:
		return j.wait, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// QueueDepth reports the number of jobs waiting for a worker across
// every class.
func (p *Pool) QueueDepth() int64 {
	var total int64
	for c := range p.depth {
		total += p.depth[c].Load()
	}
	return total
}

// QueueDepthClass reports the number of jobs of one class waiting for
// a worker.
func (p *Pool) QueueDepthClass(c Class) int64 {
	if c < 0 || c >= numClasses {
		return 0
	}
	return p.depth[c].Load()
}

// Close stops accepting new work, lets queued and in-flight jobs finish,
// and waits for every worker to exit. Safe to call more than once.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.done {
		p.done = true
		for c := range p.queues {
			close(p.queues[c])
		}
	}
	p.mu.Unlock()
	p.wg.Wait()
}
