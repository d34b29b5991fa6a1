// Package store persists evaluation results across daemon restarts. The
// serving cache and the sweep engine both die with the process; a
// ResultStore is the durable layer under them, keyed by the same
// canonical strings the response cache uses (evaluate|…, suite|…,
// tcdp:…) plus the dse point and sweep keys, so a restarted — or
// scaled-out — daemon serves historical results without re-running the
// pipeline.
//
// Two implementations:
//
//   - MemStore: a map. Current in-process behavior, for tests and as the
//     degraded fallback.
//   - SegmentStore: append-only NDJSON segment files with an in-memory
//     index — crash-safe reopen (a torn trailing line is truncated),
//     size-bounded segment rotation, and dead-record compaction. It is
//     also the sweep engine's only resume path (ppatc sweep -store-dir,
//     ppatcd -store-dir).
//
// Stored bodies are returned byte-identically: callers cache and serve
// them verbatim, which preserves the engine's determinism contract
// (identical requests → identical bytes) across restarts.
package store

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Record is one stored result: a canonical key, the kind tag used by
// scans and warm-up ("evaluate", "suite", "tcdp", "point", "sweep"),
// and the encoded body, stored and returned byte-for-byte.
type Record struct {
	Key  string `json:"key"`
	Kind string `json:"kind,omitempty"`
	Body []byte `json:"body"`
}

// Stats is a store's observability snapshot.
type Stats struct {
	// Keys is the number of distinct live keys.
	Keys int `json:"keys"`
	// LiveBytes is the payload held by live records; DeadBytes is space
	// consumed by overwritten records awaiting compaction (SegmentStore).
	LiveBytes int64 `json:"live_bytes"`
	DeadBytes int64 `json:"dead_bytes"`
	// Segments counts on-disk segment files (SegmentStore).
	Segments int `json:"segments"`
	// Puts/Gets/Hits count operations since open.
	Puts uint64 `json:"puts"`
	Gets uint64 `json:"gets"`
	Hits uint64 `json:"hits"`
	// Compactions counts segment-compaction passes.
	Compactions uint64 `json:"compactions"`
}

// ResultStore is the pluggable persistence contract. Implementations are
// safe for concurrent use. Put replaces any existing record under the
// same key; Get returns the stored body byte-identically (the returned
// record is the caller's to keep); Scan visits live records in sorted
// key order, stopping early on a callback error.
type ResultStore interface {
	Put(rec Record) error
	Get(key string) (Record, bool, error)
	Scan(prefix string, fn func(Record) error) error
	Stats() Stats
	Close() error
}

// validate rejects records no store can hold.
func validate(rec Record) error {
	if rec.Key == "" {
		return fmt.Errorf("store: empty key")
	}
	if strings.ContainsAny(rec.Key, "\n\r") {
		return fmt.Errorf("store: key %q contains a line break", rec.Key)
	}
	return nil
}

// MemStore is the in-memory ResultStore: the pre-persistence behavior,
// kept as the zero-dependency implementation for tests and degraded
// operation. Records survive exactly as long as the process.
type MemStore struct {
	mu   sync.RWMutex
	recs map[string]Record
	st   Stats
}

// NewMemStore builds an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{recs: make(map[string]Record)}
}

// Put stores a copy of rec, replacing any record under the same key.
func (m *MemStore) Put(rec Record) error {
	if err := validate(rec); err != nil {
		return err
	}
	body := make([]byte, len(rec.Body))
	copy(body, rec.Body)
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.recs[rec.Key]; ok {
		m.st.LiveBytes -= int64(len(old.Body))
	}
	m.recs[rec.Key] = Record{Key: rec.Key, Kind: rec.Kind, Body: body}
	m.st.LiveBytes += int64(len(body))
	m.st.Puts++
	return nil
}

// Get returns a copy of the record under key.
func (m *MemStore) Get(key string) (Record, bool, error) {
	m.mu.Lock()
	m.st.Gets++
	rec, ok := m.recs[key]
	if ok {
		m.st.Hits++
	}
	m.mu.Unlock()
	if !ok {
		return Record{}, false, nil
	}
	body := make([]byte, len(rec.Body))
	copy(body, rec.Body)
	return Record{Key: rec.Key, Kind: rec.Kind, Body: body}, true, nil
}

// Scan visits records whose key starts with prefix, in sorted key order.
// The callback runs outside the store lock, on its own copy of each
// record snapshotted at call time.
func (m *MemStore) Scan(prefix string, fn func(Record) error) error {
	m.mu.RLock()
	recs := make([]Record, 0, len(m.recs))
	for k, rec := range m.recs {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		body := make([]byte, len(rec.Body))
		copy(body, rec.Body)
		recs = append(recs, Record{Key: rec.Key, Kind: rec.Kind, Body: body})
	}
	m.mu.RUnlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
	for _, rec := range recs {
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// Stats reports the store's counters.
func (m *MemStore) Stats() Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	st := m.st
	st.Keys = len(m.recs)
	return st
}

// Close releases the store (a no-op for memory).
func (m *MemStore) Close() error { return nil }
