package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function of the program under test. Spans of one operation
// share a trace id; parent is 0 for an operation's root span.
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds spans in memory until the run ends. A nil tracer records
// nothing, so untraced operations run the same code without spans.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	tr *tracer
	s  span
}

// begin starts a span named name in trace, under parent.
func (t *tracer) begin(trace, parent uint64, name string) openSpan {
	if t == nil {
		return openSpan{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return openSpan{tr: t, s: span{Name: name, Trace: trace, ID: id, Parent: parent, Start: time.Since(t.epoch).Nanoseconds()}}
}

// id is the span's id, the parent of spans started inside it.
func (o openSpan) id() uint64 { return o.s.ID }

func (o openSpan) end() {
	if o.tr == nil {
		return
	}
	o.s.End = time.Since(o.tr.epoch).Nanoseconds()
	o.tr.mu.Lock()
	o.tr.spans = append(o.tr.spans, o.s)
	o.tr.mu.Unlock()
}

// recorded returns a copy of the spans recorded so far.
func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes reduces spans to self time per span name: a span's duration
// minus the part of its interval that its children cover. Children may
// overlap each other (concurrent calls) or outlive their parent; only
// the union of their intervals inside the parent is subtracted.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	type interval struct{ lo, hi int64 }
	var iv []interval
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if lo < hi {
			iv = append(iv, interval{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a].lo < iv[b].lo })
	var total, reach int64
	for i, v := range iv {
		if i == 0 || v.lo > reach {
			total += v.hi - v.lo
			reach = v.hi
			continue
		}
		if v.hi > reach {
			total += v.hi - reach
			reach = v.hi
		}
	}
	return total
}

// writeSpans writes spans as NDJSON, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	return nil
}
