// Package flight is the locksafe analyzer's fixture: its import-path
// tail puts it in the analyzer's scope. No other scoped analyzer
// (ctxflow, goleak, determinism) covers the flight tail, so the golden
// is purely lock discipline.
package flight

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

type table struct {
	mu sync.Mutex
	n  int
}

// sleepHeld blocks every other locker for the sleep's duration.
func sleepHeld(t *table) {
	t.mu.Lock()
	time.Sleep(time.Millisecond) // flagged
	t.mu.Unlock()
}

// sendHeld holds the lock across a channel send; the non-blocking
// publish-or-drop select below it is the accepted idiom.
func sendHeld(t *table, ch chan int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ch <- t.n // flagged
	select {  // ok: has a default
	case ch <- t.n:
	default:
	}
}

// recvHeld parks under the lock until a sender shows up.
func recvHeld(t *table, ch chan int) {
	t.mu.Lock()
	t.n = <-ch // flagged
	t.mu.Unlock()
}

// fetchHeld performs an HTTP round trip under the lock.
func fetchHeld(t *table) {
	t.mu.Lock()
	defer t.mu.Unlock()
	resp, err := http.Get("http://peer/x") // flagged
	if err == nil {
		resp.Body.Close()
	}
}

// waitHeld waits on goroutines that may need the same lock.
func waitHeld(t *table, wg *sync.WaitGroup) {
	t.mu.Lock()
	wg.Wait() // flagged
	t.mu.Unlock()
}

// earlyReturn leaves on a path that never reaches the Unlock.
func earlyReturn(t *table, bad bool) {
	t.mu.Lock()
	if bad {
		return // flagged: leaks the lock
	}
	t.mu.Unlock()
}

// noUnlock never releases at all.
func noUnlock(t *table) {
	t.mu.Lock() // flagged: no matching Unlock
	t.n++
}

// byValue copies the mutex with the receiver.
func (t table) byValue() int { return t.n } // flagged

// copies exercises the parameter, assignment, and range copy checks.
func copies(t *table, ts []table) int {
	u := *t // flagged: assignment copies the lock
	n := u.n
	for _, v := range ts { // flagged: range copies each element's lock
		n += v.n
	}
	return n
}

// addInGoroutine races the spawner's Wait.
func addInGoroutine(wg *sync.WaitGroup) {
	go func() {
		wg.Add(1) // flagged: Add belongs before the go statement
		defer wg.Done()
	}()
}

type stats struct {
	hits int64
}

// bump accesses hits atomically; reset then writes it plainly.
func bump(s *stats) {
	atomic.AddInt64(&s.hits, 1)
}

func reset(s *stats) {
	s.hits = 0 // flagged: mixes plain and atomic access
}

var (
	_ = sleepHeld
	_ = sendHeld
	_ = recvHeld
	_ = fetchHeld
	_ = waitHeld
	_ = earlyReturn
	_ = noUnlock
	_ = table.byValue
	_ = copies
	_ = addInGoroutine
	_ = bump
	_ = reset
)
